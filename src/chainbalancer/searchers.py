"""Searcher proposals, governance selection, and credibility tracking.

Simulated searchers enumerate candidate balancer templates (each venue
pool whose asset the state's reference venue lists) from the expected
epoch state, estimate per-template net profit (funded as the execution
would be, against the beneficiary's balance), and submit a priority-ordered
proposal. A deterministic scoring rule (credibility times replayed
profit) picks the active set for the next epoch; credibility then tracks
how well realized profit matched the claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from random import Random

from .arbitrage import Opportunity
from .arbitrage import execute_atomic  # noqa: F401 - perfbench/tracer.py rebinds it here
from .arbitrage import opportunity_from_deviation  # noqa: F401 - perfbench/tracer.py rebinds it here
from .chain import decide, execute_block_balancer_phase, standard_normal
from .state import ChainState


@dataclass
class BalancerTemplate:
    """A re-validating arbitrage instruction: (asset, venue).

    `(asset, venue_id)` names the template within a proposal; the
    producer's ordering audit compares those keys.

    Neither the trigger, the size nor the funding is baked in: each is
    re-checked against live state, under the chain state's threshold, at
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


def build_proposal(
    profile: SearcherProfile,
    expected_state: ChainState,
    conditions: GovernanceConditions,
    rng: Random,
) -> SearcherProposal:
    """Enumerate, estimate, filter, and order one searcher's template set.

    Ordering is by the searcher's own (noise-perturbed) per-template net
    profit estimates, descending, with (asset, venue) tie-breaks. The
    proposal-level profit_estimate is the total from replaying the ordered
    set once, with room for all of it, on a copy of the expected state, so
    intra-set price-impact interactions are priced in, not double-counted.
    Both the estimates and the replay run under `expected_state.threshold`.

    The conditions are applied here, as the filter: the profit floor and
    the size cap.
    """
    candidates: list[BalancerTemplate] = []
    ref = expected_state.reference_venue_id
    for venue_id, asset in sorted(expected_state.pools):
        if venue_id == ref:
            continue
        covered = rng.random() < profile.coverage
        noise = profile.noise * standard_normal(rng.random) if profile.noise > 0 else 0.0
        if not covered:
            continue
        opp = decide(expected_state, asset, venue_id)
        estimate = opp.expected_profit if isinstance(opp, Opportunity) else 0
        if estimate > 0 and noise != 0.0:
            estimate = round(estimate * exp(noise))
        if estimate < conditions.min_net_profit:
            continue
        candidates.append(BalancerTemplate(asset, venue_id, estimate))

    candidates.sort(key=lambda t: (-t.estimate, t.asset, t.venue_id))
    ordered = candidates[:conditions.max_set_size]
    sim_profit = _replay_once(expected_state, ordered, len(ordered))
    return SearcherProposal(profile.searcher_id, ordered, sim_profit)


def _replay_once(base_state: ChainState, templates: list[BalancerTemplate], room: int) -> int:
    """Net profit of the block's balancer phase run on a throwaway copy, under its threshold."""
    phase = execute_block_balancer_phase(base_state.clone(), templates, room)
    return sum(r.profit for r in phase.executed)


def evaluate_proposals(
    proposals: list[SearcherProposal],
    recent_blocks: list[tuple[ChainState, int]],
    credibility: dict[int, float],
) -> tuple[SearcherProposal | None, dict[int, dict]]:
    """Deterministic governance: argmax of credibility x replayed profit.

    Each proposal is replayed against the closing states of the last few
    blocks, each under its own threshold and with its block's balancer
    room; the mean replayed net profit, weighted by the searcher's
    credibility score, ranks the proposals. Ties fall to the lowest
    searcher id. Returns (selected or None, per-searcher scores). The
    replays go state by state, so the proposals replayed on one state
    reuse its decision slots, and proposals with the same order of
    `(asset, venue_id)` share one replay there (the estimates do not enter it).
    """
    if not proposals:
        raise ValueError("evaluate_proposals requires at least one proposal")
    orders = [tuple((t.asset, t.venue_id) for t in p.ordered_txs) for p in proposals]
    replayed: list[list[int]] = [[] for _ in proposals]
    for state, room in recent_blocks:
        by_order: dict[tuple, int] = {}
        for proposal, order, profits in zip(proposals, orders, replayed):
            if order:
                if order not in by_order:
                    by_order[order] = _replay_once(state, proposal.ordered_txs, room)
                profits.append(by_order[order])
    scores: dict[int, dict] = {}
    for proposal, profits in zip(proposals, replayed):
        sim_profit = sum(profits) / len(profits) if profits else 0.0
        cred = credibility[proposal.searcher_id]
        score = cred * sim_profit
        scores[proposal.searcher_id] = {
            "simulated_net_profit": sim_profit,
            "credibility": cred,
            "score": score,
        }
    selected = min(
        (p for p in proposals if p.ordered_txs),
        key=lambda p: (-scores[p.searcher_id]["score"], p.searcher_id),
        default=None,
    )
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
