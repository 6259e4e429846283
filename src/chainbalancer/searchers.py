"""Searcher proposals, governance selection, and credibility tracking.

Simulated searchers enumerate candidate balancer templates from the
expected epoch state, estimate per-template net profit (funded as the
execution would be, against the treasury's balance), and submit a
priority-ordered proposal. A deterministic scoring rule (credibility times
replayed profit) picks the active set for the next epoch; credibility then
tracks how well realized profit matched the claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from random import Random
from typing import Sequence

from .arbitrage import Threshold, opportunity_from_deviation
from .arbitrage import execute_atomic  # noqa: F401 - perfbench/tracer.py rebinds it here
from .chain import execute_block_balancer_phase, _live_delta, standard_normal
from .state import TREASURY, ChainState


@dataclass
class BalancerTemplate:
    """A re-validating arbitrage instruction: (asset, venue).

    `(asset, venue_id)` names the template within a proposal; the
    producer's ordering audit compares those keys.

    Neither the trigger, the size nor the funding is baked in: each is
    re-checked against live state, under the run's one `Threshold`, at
    execution time.
    """

    asset: int
    venue_id: int
    estimate: int = 0  # searcher's estimated net profit, nano-units


@dataclass
class SearcherProfile:
    searcher_id: int
    noise: float = 0.0     # sigma of multiplicative lognormal estimate noise
    coverage: float = 1.0  # probability a candidate pair is considered at all


@dataclass
class SearcherProposal:
    searcher_id: int
    ordered_txs: list[BalancerTemplate]
    profit_estimate: int   # sequential-simulation total, nano-units


@dataclass
class GovernanceConditions:
    """What a proposal's ordered set may hold: the run's one policy."""

    max_set_size: int = 16   # also caps the balancer txs per block
    min_net_profit: int = 0  # floor on each template's estimate, nano-units


def check_feasibility(conditions: GovernanceConditions, ordered_txs: Sequence) -> int:
    """1 iff the sequence fits the cap and clears the profit floor; empty
    sequences are vacuously feasible."""
    if len(ordered_txs) > conditions.max_set_size:
        return 0
    for tx in ordered_txs:
        if tx.estimate < conditions.min_net_profit:
            return 0
    return 1


def _candidate_pairs(state: ChainState, reference_venue_id: int) -> list[tuple[int, int]]:
    pairs = []
    for venue_id, asset in sorted(state.pools):
        if venue_id == reference_venue_id:
            continue
        if (reference_venue_id, asset) in state.pools:
            pairs.append((asset, venue_id))
    return pairs


def build_proposal(
    profile: SearcherProfile,
    expected_state: ChainState,
    conditions: GovernanceConditions,
    threshold: Threshold,
    reference_venue_id: int,
    rng: Random,
) -> SearcherProposal:
    """Enumerate, estimate, filter, and order one searcher's template set.

    Ordering is by the searcher's own (noise-perturbed) per-template net
    profit estimates, descending, with (asset, venue) tie-breaks. The
    proposal-level profit_estimate is the total from replaying the ordered
    set once on a copy of the expected state, so intra-set price-impact
    interactions are priced in rather than double-counted.

    The conditions are applied here, as the filter: the profit floor and
    the size cap.
    """
    candidates: list[BalancerTemplate] = []
    for asset, venue_id in _candidate_pairs(expected_state, reference_venue_id):
        covered = rng.random() < profile.coverage
        noise = profile.noise * standard_normal(rng.random) if profile.noise > 0 else 0.0
        if not covered:
            continue
        delta = _live_delta(expected_state, venue_id, asset, reference_venue_id)
        opp = opportunity_from_deviation(
            expected_state, reference_venue_id, threshold, asset, venue_id, delta
        )
        estimate = 0 if opp is None else opp.expected_profit
        if estimate > 0 and noise != 0.0:
            estimate = max(0, int(round(estimate * exp(noise))))
        if estimate < conditions.min_net_profit:
            continue
        candidates.append(BalancerTemplate(asset, venue_id, estimate))

    candidates.sort(key=lambda t: (-t.estimate, t.asset, t.venue_id))
    ordered = candidates[:conditions.max_set_size]

    # a residual of one transaction per template never binds
    sim_profit = _replay_once(
        expected_state, ordered, threshold, reference_venue_id, threshold.gas_per_tx * len(ordered)
    )
    return SearcherProposal(profile.searcher_id, ordered, sim_profit)


def _replay_once(
    base_state: ChainState,
    templates: list[BalancerTemplate],
    threshold: Threshold,
    reference_venue_id: int,
    residual_gas: int,
) -> int:
    """Net profit of the block's balancer phase run on a throwaway copy."""
    phase = execute_block_balancer_phase(
        base_state.clone(), templates, residual_gas, threshold, reference_venue_id, TREASURY
    )
    return phase.profit


def evaluate_proposals(
    proposals: list[SearcherProposal],
    recent_blocks: list[tuple[ChainState, int]],
    credibility: dict[int, float],
    threshold: Threshold,
    reference_venue_id: int,
) -> tuple[SearcherProposal | None, dict[int, dict]]:
    """Deterministic governance: argmax of credibility x replayed profit.

    Each proposal is replayed against the closing states (and residual
    gas) of the last few blocks; the mean replayed net profit, weighted by
    the searcher's credibility score, ranks the proposals. Ties fall to
    the lowest searcher id. Returns (selected or None, per-searcher scores).
    """
    if not proposals:
        raise ValueError("evaluate_proposals requires at least one proposal")
    scores: dict[int, dict] = {}
    best_key: tuple[float, int] | None = None
    selected: SearcherProposal | None = None
    for proposal in sorted(proposals, key=lambda p: p.searcher_id):
        if proposal.ordered_txs and recent_blocks:
            replayed = [
                _replay_once(state, proposal.ordered_txs, threshold, reference_venue_id, residual)
                for state, residual in recent_blocks
            ]
            sim_profit = sum(replayed) / len(replayed)
        else:
            sim_profit = 0.0
        cred = credibility[proposal.searcher_id]
        score = cred * sim_profit
        scores[proposal.searcher_id] = {
            "simulated_net_profit": sim_profit,
            "credibility": cred,
            "score": score,
        }
        if proposal.ordered_txs:
            key = (-score, proposal.searcher_id)
            if best_key is None or key < best_key:
                best_key = key
                selected = proposal
    return selected, scores


def update_credibility(
    score: float, predicted_profit: int, realized_profit: int, beta: float = 0.8
) -> float:
    """EWMA of the clamped realized/predicted ratio; stays in [0, 1]."""
    if predicted_profit > 0:
        ratio = realized_profit / predicted_profit
    else:
        ratio = 1.0 if realized_profit >= 0 else 0.0
    ratio = min(1.0, max(0.0, ratio))
    return min(1.0, max(0.0, beta * score + (1.0 - beta) * ratio))
