"""Epoch reward distribution, producer fees, and slashing.

A venue's contribution rho_v is the profit of the epoch's commits whose
non-reference leg ran there, so the epoch profit pool is exactly the sum
of the contributions. Weights omega summing to exactly 1 split it: each
group is allocated its weight times the pool, and each venue
omega_marketplaces * rho_v, so nothing is diverted. Allocations are exact
fractions; payouts floor to nano-units by one rule, `floor_payouts`: the
treasury takes the groups' flooring dust and the highest venue id the
marketplaces', so the payouts too sum to the pool.
"""

from __future__ import annotations

from decimal import Context
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # an annotation only: rewards imports no package module
    from .chain import ExecRecord

GROUP_SEARCHERS = "searchers"
GROUP_MARKETPLACES = "marketplaces"
GROUP_TREASURY = "treasury"
GROUPS = (GROUP_SEARCHERS, GROUP_MARKETPLACES, GROUP_TREASURY)


class WeightError(ValueError):
    """Reward weights must lie on the unit simplex."""


def exact_fraction(value) -> Fraction:
    """A scenario number as the decimal it prints as: 0.1 is 1/10, not the float's binary value."""
    return Fraction(str(value))


def _written(value: Fraction) -> str:
    """`value` exactly, as a decimal or else p/q; a float shows 1.00000000000000004 as 1.0."""
    n, d = value.numerator, value.denominator
    if 10 ** d.bit_length() % d:  # d is not 2^a 5^b, so no finite decimal
        return str(value)
    return str(Context(prec=n.bit_length() + d.bit_length() + 1).divide(n, d))


class RewardWeights:
    __slots__ = GROUPS  # searchers, marketplaces, treasury: an exact simplex, frozen once checked

    def __init__(self, searchers: Fraction, marketplaces: Fraction, treasury: Fraction) -> None:
        for name, value in zip(GROUPS, (searchers, marketplaces, treasury)):
            if not 0 <= value <= 1:
                raise WeightError(f"weight {name}={_written(value)} outside [0, 1]")
            object.__setattr__(self, name, value)
        total = searchers + marketplaces + treasury
        if total != 1:
            raise WeightError(f"weights sum to {_written(total)}, not 1")

    @classmethod
    def from_values(cls, searchers, marketplaces, treasury) -> "RewardWeights":
        return cls(*map(exact_fraction, (searchers, marketplaces, treasury)))

    def _values(self) -> tuple:
        return self.searchers, self.marketplaces, self.treasury

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is RewardWeights else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # copy and pickle build the twin through the checks
        return RewardWeights, self._values()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"RewardWeights is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class RewardLedger(NamedTuple):
    profit_pool: int                                  # nano-units
    allocations: dict[str, Fraction]
    marketplace_allocations: dict[int, Fraction]
    payouts: dict[str, int]
    marketplace_payouts: dict[int, int]


def floor_payouts(shares: dict, total: int, holder) -> dict:
    """Each share but `holder`'s floored to nano-units (`int` floors a share >= 0);
    `holder` takes the rest of `total`."""
    payouts = {key: int(value) for key, value in shares.items() if key != holder}
    payouts[holder] = total - sum(payouts.values())
    return payouts


def measure_contribution(
    epoch_records: list[ExecRecord], venue_ids: list[int]
) -> dict[int, int]:
    """rho per venue: committed profit whose non-reference leg ran there.
    `venue_ids` is ascending and holds the venue of every record."""
    rho = dict.fromkeys(venue_ids, 0)
    for record in epoch_records:
        rho[record.venue_id] += record.profit
    return rho


def pay_producer(fees: int, gamma: Fraction) -> int:
    """Producer's cut of a block's balancer gas fees (nano-units): floor(gamma * fees).

    `gamma` is the scenario's `weights.gamma` as an exact fraction, parsed
    once per run with `exact_fraction`; that row keeps it in (0, 1). Both
    are non-negative, so the integer floor division is that floor.
    """
    return fees * gamma.numerator // gamma.denominator


def apply_slashing(
    executed: list[tuple[int, int]],
    prescribed: list[tuple[int, int]],
    penalty: int,
    producer_balance: int,
) -> int:
    """Slash amount for an out-of-order execution, floored at the balance.

    Items are templates' `(asset, venue_id)` keys, unique within a proposal.
    The order is violated iff the executed keys are not a subsequence of the
    prescribed ones; skipped templates are simply absent.
    """
    position = {key: i for i, key in enumerate(prescribed)}
    last = -1
    for key in executed:
        pos = position.get(key)
        if pos is None or pos < last:  # executing an unprescribed tx is itself a violation
            return min(penalty, max(0, producer_balance))
        last = pos
    return 0


def build_ledger(weights: RewardWeights, rho: dict[int, int]) -> RewardLedger:
    """Split the epoch pool, the contributions' sum, exactly; then floor the payouts.

    Each group is allocated its weight times the pool, so the allocations
    sum to the pool; the treasury's payout takes the groups' flooring dust,
    the highest venue id's the marketplaces' (neither can go negative).
    """
    if any(value < 0 for value in rho.values()):
        raise ValueError("contributions must be non-negative")
    pool = sum(rho.values())
    allocations = {group: getattr(weights, group) * pool for group in GROUPS}
    venue_allocations = {venue: weights.marketplaces * value for venue, value in rho.items()}
    payouts = floor_payouts(allocations, pool, GROUP_TREASURY)
    venue_payouts = (
        floor_payouts(venue_allocations, payouts[GROUP_MARKETPLACES], max(rho)) if rho else {}
    )
    return RewardLedger(pool, allocations, venue_allocations, payouts, venue_payouts)
