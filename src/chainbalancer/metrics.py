"""Objective metrics: price discrepancy and utilization cost.

The mechanism is scored, not solved in closed form: each run realizes a
feasible transaction sequence, and these metrics report the objective it
achieves. Discrepancy sums unordered venue pairs once; doubling recovers
the ordered-pair convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .market import PriceVector


@dataclass
class ObjectiveWeights:
    lambda1: float = 1.0
    lambda2: float = 0.1
    delta_cap: float = 0.05

    def __post_init__(self) -> None:
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("objective weights must be non-negative")
        if self.lambda1 == 0 and self.lambda2 == 0:
            raise ValueError("objective weights must not both be zero")


@dataclass
class ObjectiveSample:
    block: int
    cumulative_discrepancy: float
    utilization: float
    psi: float
    scalarized: float
    captured_profit: float = 0.0
    leaked_profit: float = 0.0
    max_abs_deviation: float = 0.0


@dataclass
class ConstraintResult:
    satisfied: bool
    mean_psi: float


def cumulative_discrepancy(price_vectors: list[PriceVector]) -> float:
    """Sum of |P_i - P_j| over unordered venue pairs and shared assets."""
    total = 0.0
    for vec_i, vec_j in combinations(price_vectors, 2):
        for asset in vec_i.prices.keys() & vec_j.prices.keys():
            total += abs(vec_i.prices[asset] - vec_j.prices[asset])
    return total


def scalarized_objective(sample: ObjectiveSample, weights: ObjectiveWeights) -> float:
    """lambda1 * discrepancy - lambda2 * utilization (lower is better)."""
    return weights.lambda1 * sample.cumulative_discrepancy - weights.lambda2 * sample.utilization


def epoch_constraint_check(psis: list[float], delta_cap: float) -> ConstraintResult:
    """Mean per-block performance cost against the cap; reported, not enforced."""
    if not psis:
        raise ValueError("constraint check requires a non-empty epoch")
    mean_psi = sum(psis) / len(psis)
    return ConstraintResult(satisfied=mean_psi <= delta_cap, mean_psi=mean_psi)
