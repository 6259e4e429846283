"""Constant-product venues and spot-price snapshots.

A venue hosts one pool per tradeable asset, quoted against the numeraire
(asset 0). The chain state names one venue the reference market and
measures every other venue's price against it.

Swap accounting is Uniswap-v2 style with an input-side fee: the full input
amount enters the reserves, but only the fee-reduced portion prices the
trade. Outputs round down, so the reserve product never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .units import SCALE, net_of_fee

NUMERAIRE = 0

# fee must stay well below 100%; the config contract caps it at 10%
MAX_FEE_PPB = SCALE // 10


class SwapDirection(str, Enum):
    BASE_IN = "base_in"    # sell the base asset into the pool
    QUOTE_IN = "quote_in"  # spend the numeraire to buy the base asset


@dataclass(slots=True)
class Pool:
    """One constant-product pair: the `base` asset priced in the numeraire."""

    venue_id: int
    base: int
    reserve_base: int   # nano-units
    reserve_quote: int  # nano-units of the numeraire
    fee_ppb: int = 0

    def __post_init__(self) -> None:
        if self.base == NUMERAIRE:
            raise ValueError(f"pool {self.venue_id}: base must not be the numeraire")
        # the swap and sizing arithmetic is integer-only
        for name in ("reserve_base", "reserve_quote", "fee_ppb"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"pool {self.venue_id}: {name} must be an int, got {value!r}")
        if not 0 <= self.fee_ppb < MAX_FEE_PPB:
            raise ValueError(f"pool {self.venue_id}: fee {self.fee_ppb} ppb out of [0, 10%) range")
        # a swap pays out at most reserve_out - 1, so a reserve never reaches 0 later
        if self.reserve_base < 1 or self.reserve_quote < 1:
            raise ValueError(f"pool {self.venue_id}: reserve below 1 nano-unit")

    def clone(self) -> "Pool":
        # no checks for a checked pool's copy: the constructor would run __post_init__ again
        twin = object.__new__(Pool)
        twin.venue_id = self.venue_id
        twin.base = self.base
        twin.reserve_base = self.reserve_base
        twin.reserve_quote = self.reserve_quote
        twin.fee_ppb = self.fee_ppb
        return twin


def spot_price(pool: Pool) -> float:
    """Marginal (fee-exclusive) price of the pool's base asset."""
    return pool.reserve_quote / pool.reserve_base


def quote_swap(pool: Pool, direction: SwapDirection, amount_in: int) -> int:
    """Output of a swap without mutating the pool.

    out = net_in * reserve_out / (reserve_in + net_in), rounded down.
    """
    if amount_in <= 0:
        raise ValueError(f"amount_in must be positive, got {amount_in}")
    if direction is SwapDirection.BASE_IN:
        reserve_in, reserve_out = pool.reserve_base, pool.reserve_quote
    else:
        reserve_in, reserve_out = pool.reserve_quote, pool.reserve_base
    net_in = net_of_fee(amount_in, pool.fee_ppb)
    return net_in * reserve_out // (reserve_in + net_in)


def execute_swap(pool: Pool, direction: SwapDirection, amount_in: int) -> int:
    """Apply a swap to the pool, returning amount_out.

    The full input (fee included) is added to the reserves; the output is
    exactly what quote_swap reports on the pre-state.
    """
    amount_out = quote_swap(pool, direction, amount_in)
    if direction is SwapDirection.BASE_IN:
        pool.reserve_base += amount_in
        pool.reserve_quote -= amount_out
    else:
        pool.reserve_quote += amount_in
        pool.reserve_base -= amount_out
    return amount_out


def snapshot_prices(pools: Iterable[Pool]) -> list[float]:
    """Spot price of every pool, in iteration order; equal to spot_price."""
    return [pool.reserve_quote / pool.reserve_base for pool in pools]
