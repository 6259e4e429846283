"""Constant-product venues and spot-price snapshots.

A venue hosts one pool per tradeable asset, quoted against the numeraire
(asset 0). Exactly one venue is flagged as the reference market; deviation
scans measure every other venue against it.

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
    QUOTE_IN = "quote_in"  # spend quote (numeraire) to buy the base asset


class DegenerateVenueError(ValueError):
    """A pool with an empty reserve cannot quote or trade."""


@dataclass
class Pool:
    """One constant-product pair: `base` asset priced in `quote` units."""

    venue_id: int
    base: int
    quote: int
    reserve_base: int   # nano-units
    reserve_quote: int  # nano-units
    fee_ppb: int = 0
    is_reference: bool = False

    def __post_init__(self) -> None:
        if self.base == self.quote:
            raise ValueError(f"pool {self.venue_id}: base and quote must differ")
        if not 0 <= self.fee_ppb < MAX_FEE_PPB:
            raise ValueError(f"pool {self.venue_id}: fee {self.fee_ppb} ppb out of [0, 10%) range")
        if self.reserve_base < 0 or self.reserve_quote < 0:
            raise ValueError(f"pool {self.venue_id}: negative reserve")

    @property
    def tradeable(self) -> bool:
        return self.reserve_base > 0 and self.reserve_quote > 0

    @property
    def product(self) -> int:
        return self.reserve_base * self.reserve_quote

    def clone(self) -> "Pool":
        return Pool(
            venue_id=self.venue_id,
            base=self.base,
            quote=self.quote,
            reserve_base=self.reserve_base,
            reserve_quote=self.reserve_quote,
            fee_ppb=self.fee_ppb,
            is_reference=self.is_reference,
        )


def spot_price(pool: Pool, asset: int | None = None) -> float:
    """Marginal (fee-exclusive) price of the pool's base asset.

    `asset`, when given, must be the pool's base; passing the quote asset
    is a caller bug, not a quoting convention.
    """
    if asset is not None and asset != pool.base:
        raise ValueError(f"pool quotes asset {pool.base}, not {asset}")
    if not pool.tradeable:
        raise DegenerateVenueError(
            f"venue {pool.venue_id} asset {pool.base}: empty reserve"
        )
    return pool.reserve_quote / pool.reserve_base


def quote_swap(pool: Pool, direction: SwapDirection, amount_in: int) -> int:
    """Output of a swap without mutating the pool.

    out = net_in * reserve_out / (reserve_in + net_in), rounded down.
    """
    if amount_in <= 0:
        raise ValueError(f"amount_in must be positive, got {amount_in}")
    if not pool.tradeable:
        raise DegenerateVenueError(
            f"venue {pool.venue_id} asset {pool.base}: empty reserve"
        )
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
    """Spot price of every pool, in iteration order; equal to spot_price.

    No guard is needed: a validated scenario starts every reserve at 1 nano
    or more, and a swap never pays out its whole output reserve.
    """
    return [pool.reserve_quote / pool.reserve_base for pool in pools]
