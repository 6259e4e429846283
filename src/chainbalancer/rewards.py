"""Epoch reward distribution, producer fees, and slashing.

The epoch profit pool splits across searchers, marketplaces, and the
treasury by configured weights; the marketplace share subdivides in
proportion to each venue's realized contribution. Allocation arithmetic is
exact (stdlib fractions); physical payouts quantize to nano-units with the
last share absorbing the rounding remainder, so the quantized payouts also
sum to the pool exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chain import Block, ExecRecord

GROUP_SEARCHERS = "searchers"
GROUP_MARKETPLACES = "marketplaces"
GROUP_TREASURY = "treasury"
GROUPS = (GROUP_SEARCHERS, GROUP_MARKETPLACES, GROUP_TREASURY)

SIMPLEX_TOLERANCE = Fraction(1, 10**12)


class WeightError(ValueError):
    """Reward weights must lie on the unit simplex."""


@dataclass
class RewardWeights:
    searchers: Fraction
    marketplaces: Fraction
    treasury: Fraction

    @classmethod
    def from_values(cls, searchers, marketplaces, treasury) -> "RewardWeights":
        w = cls(
            Fraction(str(searchers)),
            Fraction(str(marketplaces)),
            Fraction(str(treasury)),
        )
        w.validate()
        return w

    def validate(self) -> None:
        for name, value in zip(GROUPS, (self.searchers, self.marketplaces, self.treasury)):
            if not 0 <= value <= 1:
                raise WeightError(f"weight {name}={float(value)} outside [0, 1]")
        total = self.searchers + self.marketplaces + self.treasury
        if abs(total - 1) > SIMPLEX_TOLERANCE:
            raise WeightError(f"weights sum to {float(total)}, not 1")


@dataclass
class MarketplaceContribution:
    venue_id: int
    rho: int  # nano-units of committed profit attributed to the venue

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ValueError("contribution must be non-negative")


@dataclass
class RewardLedger:
    epoch: int
    profit_pool: int                                  # nano-units
    allocations: dict[str, Fraction] = field(default_factory=dict)
    marketplace_allocations: dict[int, Fraction] = field(default_factory=dict)
    payouts: dict[str, int] = field(default_factory=dict)
    marketplace_payouts: dict[int, int] = field(default_factory=dict)
    producer_fees: int = 0
    slashed: int = 0
    diverted_to_treasury: bool = False


def split_pool(profit_pool: int, weights: RewardWeights) -> dict[str, Fraction]:
    """Exact group allocations; the treasury takes the closure remainder.

    With weights summing to exactly 1 the remainder is zero; the closure
    rule only matters for weights that pass the 1e-12 simplex check with a
    representation residue.
    """
    if profit_pool < 0:
        raise ValueError("profit pool must be non-negative")
    weights.validate()
    searchers = weights.searchers * profit_pool
    marketplaces = weights.marketplaces * profit_pool
    treasury = profit_pool - searchers - marketplaces
    return {
        GROUP_SEARCHERS: searchers,
        GROUP_MARKETPLACES: marketplaces,
        GROUP_TREASURY: treasury,
    }


def split_marketplaces(
    group_allocation: Fraction,
    contributions: list[MarketplaceContribution],
) -> tuple[dict[int, Fraction], bool]:
    """Per-venue shares proportional to contribution, exactly.

    When every contribution is zero but the allocation is positive there
    is nothing to attribute; the share is diverted to the treasury and the
    second return value flags it.
    """
    total_rho = sum(c.rho for c in contributions)
    if group_allocation > 0 and total_rho == 0:
        return {c.venue_id: Fraction(0) for c in contributions}, True
    if total_rho == 0:
        return {c.venue_id: Fraction(0) for c in contributions}, False
    shares = {
        c.venue_id: group_allocation * Fraction(c.rho, total_rho) for c in contributions
    }
    return shares, False


def quantize_allocations(
    allocations: dict, total: int, remainder_key
) -> dict:
    """Floor each share to nano-units; the remainder key absorbs the dust.

    Guarantees the quantized values sum to `total` exactly.
    """
    payouts = {}
    assigned = 0
    for key, value in allocations.items():
        if key == remainder_key:
            continue
        nano = int(value)  # Fraction floors toward zero; shares are >= 0
        payouts[key] = nano
        assigned += nano
    payouts[remainder_key] = total - assigned
    if payouts[remainder_key] < 0:
        raise ValueError("allocations exceed the pool")
    return payouts


def measure_contribution(
    epoch_records: list[ExecRecord], venue_ids: list[int]
) -> list[MarketplaceContribution]:
    """rho per venue: committed profit whose non-reference leg ran there."""
    rho = {venue_id: 0 for venue_id in sorted(venue_ids)}
    for record in epoch_records:
        rho[record.venue_id] = rho.get(record.venue_id, 0) + record.profit
    return [MarketplaceContribution(venue_id, value) for venue_id, value in sorted(rho.items())]


def pay_producer(block: Block, gamma: float) -> int:
    """Producer's cut of the block's balancer gas fees: floor(gamma * fees)."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie strictly inside (0, 1)")
    gamma_frac = Fraction(str(gamma))
    return int(gamma_frac * block.fees_collected)


def has_order_violation(executed_ids: list[int], prescribed_ids: list[int]) -> bool:
    """True iff the executed sequence is not a subsequence of the prescribed one.

    Skipped templates are simply absent; what matters is that the executed
    templates appear in prescribed relative order.
    """
    position = {tid: i for i, tid in enumerate(prescribed_ids)}
    last = -1
    for tid in executed_ids:
        pos = position.get(tid)
        if pos is None:  # executing an unprescribed tx is itself a violation
            return True
        if pos < last:
            return True
        last = pos
    return False


def apply_slashing(
    executed_ids: list[int],
    prescribed_ids: list[int],
    penalty: int,
    producer_balance: int,
) -> int:
    """Slash amount for an out-of-order execution, floored at the balance."""
    if not has_order_violation(executed_ids, prescribed_ids):
        return 0
    return min(penalty, max(0, producer_balance))


def build_ledger(
    epoch: int,
    profit_pool: int,
    weights: RewardWeights,
    contributions: list[MarketplaceContribution],
    producer_fees: int,
    slashed: int,
) -> RewardLedger:
    """Assemble the epoch ledger: exact allocations plus quantized payouts."""
    allocations = split_pool(profit_pool, weights)
    marketplace_allocs, diverted = split_marketplaces(
        allocations[GROUP_MARKETPLACES], contributions
    )
    if diverted:
        allocations[GROUP_TREASURY] += allocations[GROUP_MARKETPLACES]
        allocations[GROUP_MARKETPLACES] = Fraction(0)
        marketplace_allocs = {venue: Fraction(0) for venue in marketplace_allocs}
    payouts = quantize_allocations(allocations, profit_pool, GROUP_TREASURY)
    if marketplace_allocs and payouts[GROUP_MARKETPLACES] > 0:
        last_venue = max(marketplace_allocs)
        marketplace_payouts = quantize_allocations(
            marketplace_allocs, payouts[GROUP_MARKETPLACES], last_venue
        )
    else:
        marketplace_payouts = {venue: 0 for venue in marketplace_allocs}
    return RewardLedger(
        epoch=epoch,
        profit_pool=profit_pool,
        allocations=allocations,
        marketplace_allocations=marketplace_allocs,
        payouts=payouts,
        marketplace_payouts=marketplace_payouts,
        producer_fees=producer_fees,
        slashed=slashed,
        diverted_to_treasury=diverted,
    )
