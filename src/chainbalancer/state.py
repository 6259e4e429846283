"""Chain state: pools plus per-asset balances for every tracked holder.

The simulation is a closed system. Every quantity that leaves a pool or an
account lands in another tracked holder, so per-asset totals are constant
to the nano-unit across any sequence of operations. Special holders:

    treasury    network-owned capital
    lender      flash-loan liquidity
    producer    accumulated block-producer fees
    external    the external-arbitrageur baseline account
    fee_escrow  per-block gas fees awaiting the producer split
    fee_burn    the non-producer share of gas fees (burned, but tracked)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .market import Pool

TREASURY = "treasury"
LENDER = "lender"
PRODUCER = "producer"
EXTERNAL = "external"
FEE_ESCROW = "fee_escrow"
FEE_BURN = "fee_burn"


def user_account(index: int) -> str:
    return f"user:{index}"


def searcher_account(searcher_id: int) -> str:
    return f"searcher:{searcher_id}"


def marketplace_account(venue_id: int) -> str:
    return f"market:{venue_id}"


class InsufficientBalanceError(Exception):
    def __init__(self, holder: str, asset: int, needed: int, available: int):
        super().__init__(
            f"{holder} needs {needed} nano of asset {asset}, has {available}"
        )
        self.holder = holder
        self.asset = asset
        self.needed = needed
        self.available = available


@dataclass
class ChainState:
    pools: dict[tuple[int, int], Pool]          # (venue_id, asset) -> Pool
    accounts: dict[str, dict[int, int]] = field(default_factory=dict)
    block_height: int = 0

    def pool(self, venue_id: int, asset: int) -> Pool:
        return self.pools[(venue_id, asset)]

    def balance(self, holder: str, asset: int) -> int:
        """Read-only: an unknown holder has a zero balance and stays unknown."""
        return self.accounts.get(holder, {}).get(asset, 0)

    def credit(self, holder: str, asset: int, amount: int) -> None:
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        bal = self.accounts.setdefault(holder, {})
        bal[asset] = bal.get(asset, 0) + amount

    def debit(self, holder: str, asset: int, amount: int) -> None:
        if amount < 0:
            raise ValueError("debit amount must be non-negative")
        have = self.balance(holder, asset)
        if have < amount:
            raise InsufficientBalanceError(holder, asset, amount, have)
        self.accounts.setdefault(holder, {})[asset] = have - amount

    def transfer(self, src: str, dst: str, asset: int, amount: int) -> None:
        self.debit(src, asset, amount)
        self.credit(dst, asset, amount)

    def asset_totals(self) -> dict[int, int]:
        """Per-asset totals over pools and accounts (nano-units)."""
        totals: dict[int, int] = {}
        for pool in self.pools.values():
            totals[pool.base] = totals.get(pool.base, 0) + pool.reserve_base
            totals[pool.quote] = totals.get(pool.quote, 0) + pool.reserve_quote
        for balances in self.accounts.values():
            for asset, amount in balances.items():
                totals[asset] = totals.get(asset, 0) + amount
        return totals

    def clone(self) -> "ChainState":
        return ChainState(
            pools={key: pool.clone() for key, pool in self.pools.items()},
            accounts={holder: dict(bal) for holder, bal in self.accounts.items()},
            block_height=self.block_height,
        )
