"""Searcher proposals, governance selection, and credibility tracking.

Simulated searchers enumerate candidate balancer templates from the
expected epoch state, estimate per-template net profit, and submit a
priority-ordered proposal. A deterministic scoring rule (credibility times
replayed profit) picks the active set for the next epoch; credibility then
tracks how well realized profit matched the claim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arbitrage import Deviation, Funding, Threshold, opportunity_from_deviation
from .arbitrage import execute_atomic  # noqa: F401 - perfbench/tracer.py rebinds it here
from .chain import FeasibilityPredicate, execute_block_balancer_phase, _live_delta
from .state import TREASURY, ChainState

FUNDING_ORDER = {Funding.FLASH_LOAN: 0, Funding.NETWORK_LIQUIDITY: 1}


@dataclass
class BalancerTemplate:
    """A re-validating arbitrage instruction: (asset, venue, funding, trigger).

    Sizing is deliberately not baked in; the optimal size is recomputed
    from live reserves at execution time.
    """

    template_id: int
    asset: int
    venue_id: int
    funding: Funding
    trigger_epsilon: float
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
    gas_estimate: int


@dataclass
class Credibility:
    searcher_id: int
    score: float = 1.0


@dataclass
class GovernanceConditions:
    allowed_funding: frozenset
    reference_venue_id: int
    max_set_size: int = 16

    def __post_init__(self) -> None:
        self.allowed_funding = frozenset(Funding(f) for f in self.allowed_funding)


def template_id_for(asset: int, venue_id: int, funding: Funding) -> int:
    """Stable id shared by all searchers, used for deterministic tie-breaks."""
    return (asset * 10_000 + venue_id) * 10 + FUNDING_ORDER[funding]


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
    predicate: FeasibilityPredicate,
    gas_per_tx: int,
    rng: np.random.Generator,
) -> SearcherProposal:
    """Enumerate, estimate, filter, and order one searcher's template set.

    Ordering is by the searcher's own (noise-perturbed) per-template net
    profit estimates, descending, with template-id tie-breaks. The
    proposal-level profit_estimate is the total from replaying the ordered
    set once on a copy of the expected state, so intra-set price-impact
    interactions are priced in rather than double-counted.

    The predicate is applied here, as the filter: one funding kind both the
    predicate and governance allow (network liquidity, which avoids the
    flash fee, when it is), the profit floor, and the size cap.
    """
    allowed = predicate.allowed_funding & conditions.allowed_funding
    if not allowed:
        return SearcherProposal(profile.searcher_id, [], 0, 0)
    funding = max(allowed, key=FUNDING_ORDER.get)

    candidates: list[BalancerTemplate] = []
    for asset, venue_id in _candidate_pairs(expected_state, conditions.reference_venue_id):
        covered = rng.random() < profile.coverage
        noise = float(rng.normal(0.0, profile.noise)) if profile.noise > 0 else 0.0
        if not covered:
            continue
        delta = _live_delta(expected_state, venue_id, asset, conditions.reference_venue_id)
        estimate = 0
        if abs(delta) > threshold.epsilon:
            opp = opportunity_from_deviation(
                Deviation(asset, venue_id, delta),
                expected_state.pools,
                conditions.reference_venue_id,
                threshold,
                funding=funding,
                gas_estimate=gas_per_tx,
            )
            if opp is not None:
                estimate = opp.expected_profit
        if estimate > 0 and noise != 0.0:
            estimate = max(0, int(round(estimate * float(np.exp(noise)))))
        if estimate < predicate.min_net_profit:
            continue
        candidates.append(
            BalancerTemplate(
                template_id=template_id_for(asset, venue_id, funding),
                asset=asset,
                venue_id=venue_id,
                funding=funding,
                trigger_epsilon=threshold.epsilon,
                estimate=estimate,
            )
        )

    candidates.sort(key=lambda t: (-t.estimate, t.template_id))
    cap = min(conditions.max_set_size, predicate.max_txs_per_block)
    ordered = candidates[:cap]

    # a residual of one transaction per template never binds
    sim_profit = _replay_once(
        expected_state,
        ordered,
        threshold,
        conditions.reference_venue_id,
        gas_per_tx,
        gas_per_tx * len(ordered),
    )
    return SearcherProposal(
        searcher_id=profile.searcher_id,
        ordered_txs=ordered,
        profit_estimate=sim_profit,
        gas_estimate=gas_per_tx * len(ordered),
    )


def _replay_once(
    base_state: ChainState,
    templates: list[BalancerTemplate],
    threshold: Threshold,
    reference_venue_id: int,
    gas_per_tx: int,
    residual_gas: int,
) -> int:
    """Net profit of the block's balancer phase run on a throwaway copy."""
    phase = execute_block_balancer_phase(
        base_state.clone(),
        templates,
        residual_gas,
        threshold,
        reference_venue_id,
        TREASURY,
        gas_per_tx,
    )
    return phase.profit


def evaluate_proposals(
    proposals: list[SearcherProposal],
    recent_blocks: list[tuple[ChainState, int]],
    credibility: dict[int, Credibility],
    threshold: Threshold,
    reference_venue_id: int,
    gas_per_tx: int,
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
                _replay_once(
                    state,
                    proposal.ordered_txs,
                    threshold,
                    reference_venue_id,
                    gas_per_tx,
                    residual,
                )
                for state, residual in recent_blocks
            ]
            sim_profit = sum(replayed) / len(replayed)
        else:
            sim_profit = 0.0
        cred = credibility[proposal.searcher_id].score
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
    cred: Credibility, predicted_profit: int, realized_profit: int, beta: float = 0.8
) -> Credibility:
    """EWMA of the clamped realized/predicted ratio; stays in [0, 1]."""
    if predicted_profit > 0:
        ratio = realized_profit / predicted_profit
    else:
        ratio = 1.0 if realized_profit >= 0 else 0.0
    ratio = min(1.0, max(0.0, ratio))
    new_score = beta * cred.score + (1.0 - beta) * ratio
    new_score = min(1.0, max(0.0, new_score))
    return replace(cred, score=new_score)
