"""The objective: price discrepancy, utilization and its performance cost.

The mechanism is scored, not solved in closed form: each run realizes a
feasible transaction sequence, and these metrics report the objective it
achieves. Each block scores lambda1 * discrepancy - lambda2 * utilization;
each epoch checks its mean performance cost psi (a ramp above the knee
u_star) against the cap delta. Utilization comes in as a float, the share
of the block's capacity its txs used, which the runner works out once per
block. Discrepancy sums unordered venue pairs once; doubling recovers the
ordered-pair convention.

Prices come as one flat snapshot (market.snapshot_prices) indexed like the
run's pool keys. The index plans below are built once per run, since the
pool set never changes. Discrepancy sums venue pairs i < j ascending and,
within a pair, shared assets ascending.

Every float sum that reaches a report adds its terms left to right with
`+=` from 0.0, in the order given: `ordered_sum` does so, and so do the hot
loops that inline it. `sum()` is avoided because it compensates float sums
on Python 3.12+ and would change the reported bytes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence


class ObjectiveWeights(NamedTuple):
    lambda1: float = 1.0
    lambda2: float = 0.1
    delta_cap: float = 0.05
    u_star: float = 0.9  # psi's knee


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
    for every non-reference pool; the reference lists every asset."""
    index = {key: n for n, key in enumerate(keys)}
    return [
        (n, index[(reference_venue_id, asset)])
        for n, (venue, asset) in enumerate(keys)
        if venue != reference_venue_id
    ]


def ordered_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum from 0.0, the same on every Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def cumulative_discrepancy(prices: Sequence[float], pairs: Sequence[tuple[int, int]]) -> float:
    """Sum of |P_i - P_j| over the snapshot index pairs, in their order."""
    total = 0.0
    for i, j in pairs:
        total += abs(prices[i] - prices[j])
    return total


def max_relative_deviation(prices: Sequence[float], pairs: Sequence[tuple[int, int]]) -> float:
    """Largest |P_venue - P_ref| / P_ref over the deviation pairs; 0.0 if none."""
    largest = 0.0
    for venue, reference in pairs:
        p_ref = prices[reference]
        deviation = abs((prices[venue] - p_ref) / p_ref)
        if deviation > largest:
            largest = deviation
    return largest


def performance_cost_psi(u: float, u_star: float) -> float:
    """Piecewise-linear congestion ramp in utilization: 0 up to the knee, 1 at saturation."""
    if u <= u_star:
        return 0.0
    return (u - u_star) / (1.0 - u_star)


def scalarized_objective(discrepancy: float, utilization: float, weights: ObjectiveWeights) -> float:
    """lambda1 * discrepancy - lambda2 * utilization (lower is better)."""
    return weights.lambda1 * discrepancy - weights.lambda2 * utilization


def epoch_constraint_check(psis: list[float], delta_cap: float) -> dict:
    """The epoch's mean performance cost against the cap; reported, not enforced."""
    if not psis:
        raise ValueError("constraint check requires a non-empty epoch")
    mean_psi = ordered_sum(psis) / len(psis)
    return {"mean_psi": mean_psi, "delta": float(delta_cap), "satisfied": mean_psi <= delta_cap}
