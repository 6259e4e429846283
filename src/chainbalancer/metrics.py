"""Objective metrics: price discrepancy and utilization cost.

The mechanism is scored, not solved in closed form: each run realizes a
feasible transaction sequence, and these metrics report the objective it
achieves. Discrepancy sums unordered venue pairs once; doubling recovers
the ordered-pair convention.

Prices come as one flat snapshot (market.snapshot_prices) indexed like the
run's pool keys. The index plans below are built once per run, since the
pool set never changes. Discrepancy sums venue pairs i < j ascending and,
within a pair, shared assets ascending.

Every float sum that reaches a report goes through `ordered_sum`, left to
right with `+=` from 0.0. `sum()` is avoided because it compensates float
sums on Python 3.12+ and would change the reported bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


@dataclass
class ObjectiveWeights:
    lambda1: float = 1.0
    lambda2: float = 0.1
    delta_cap: float = 0.05


@dataclass
class ConstraintResult:
    satisfied: bool
    mean_psi: float


def discrepancy_pairs(keys: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Snapshot index pairs (i, j) of every venue pair's shared assets.

    `keys` holds the snapshot's (venue, asset) per entry. Venue pairs come
    in ascending order, lower venue first, then shared assets ascending.
    """
    index = {key: n for n, key in enumerate(keys)}
    venues: dict[int, set[int]] = {}
    for venue, asset in keys:
        venues.setdefault(venue, set()).add(asset)
    return [
        (index[(venue_i, asset)], index[(venue_j, asset)])
        for venue_i, venue_j in combinations(sorted(venues), 2)
        for asset in sorted(venues[venue_i] & venues[venue_j])
    ]


def deviation_pairs(
    keys: Sequence[tuple[int, int]], reference_venue_id: int
) -> list[tuple[int, int]]:
    """Snapshot index pairs (venue pool, reference pool) of the same asset,
    for every non-reference pool whose asset the reference lists."""
    index = {key: n for n, key in enumerate(keys)}
    return [
        (n, index[(reference_venue_id, asset)])
        for n, (venue, asset) in enumerate(keys)
        if venue != reference_venue_id and (reference_venue_id, asset) in index
    ]


def ordered_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum from 0.0, the same on every Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def cumulative_discrepancy(prices: Sequence[float], pairs: Sequence[tuple[int, int]]) -> float:
    """Sum of |P_i - P_j| over the snapshot index pairs, in their order."""
    return ordered_sum(abs(prices[i] - prices[j]) for i, j in pairs)


def max_relative_deviation(prices: Sequence[float], pairs: Sequence[tuple[int, int]]) -> float:
    """Largest |P_venue - P_ref| / P_ref over the deviation pairs; 0.0 if none."""
    largest = 0.0
    for venue, reference in pairs:
        p_ref = prices[reference]
        deviation = abs((prices[venue] - p_ref) / p_ref)
        if deviation > largest:
            largest = deviation
    return largest


def scalarized_objective(discrepancy: float, utilization: float, weights: ObjectiveWeights) -> float:
    """lambda1 * discrepancy - lambda2 * utilization (lower is better)."""
    return weights.lambda1 * discrepancy - weights.lambda2 * utilization


def epoch_constraint_check(psis: list[float], delta_cap: float) -> ConstraintResult:
    """Mean per-block performance cost against the cap; reported, not enforced."""
    if not psis:
        raise ValueError("constraint check requires a non-empty epoch")
    mean_psi = ordered_sum(psis) / len(psis)
    return ConstraintResult(satisfied=mean_psi <= delta_cap, mean_psi=mean_psi)
