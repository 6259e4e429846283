"""Chain state: pools, per-asset balances for every tracked holder, the
reference venue that `deviation` measures every other venue against, the
network-wide `Threshold` (trigger, loan fee, gas cost, allowed funding)
every balancer transaction runs under, and the beneficiary that funds the
balancer's trades and keeps their profit. It also carries `decisions`, the
balancer templates' decision slots, which `chain.decide` keys by all it reads,
the threshold included; a state and all its clones share one slot map.

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

from typing import TYPE_CHECKING

from .market import NUMERAIRE, Pool, spot_price

if TYPE_CHECKING:  # arbitrage imports this module
    from .arbitrage import Threshold

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
    """A debit larger than the holder's balance; the message gives both amounts."""


class ChainState:
    __slots__ = ("pools", "reference_venue_id", "threshold", "accounts", "block_height",
                 "beneficiary", "decisions")  # decisions last: equality leaves it out

    def __init__(
        self, pools: dict[tuple[int, int], Pool], reference_venue_id: int,  # (venue, asset) keys
        threshold: Threshold,  # the balancer's rules; shared with every clone
        accounts: dict[str, dict[int, int]] | None = None, block_height: int = 0,
        beneficiary: str = TREASURY,  # funds the balancer's trades and keeps their profit
    ) -> None:
        self.pools, self.reference_venue_id, self.threshold = pools, reference_venue_id, threshold
        self.accounts = {} if accounts is None else accounts
        self.block_height, self.beneficiary = block_height, beneficiary
        # chain.decide's slots by (venue_id, asset); shared with every clone, not state proper
        self.decisions: dict = {}

    def __eq__(self, other: object) -> bool:
        if type(other) is not ChainState:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__[:-1])

    def deviation(self, venue_id: int, asset: int) -> float:
        """(p_venue - p_ref) / p_ref for `asset`: positive when the venue is dear."""
        p_v = spot_price(self.pools[(venue_id, asset)])
        p_r = spot_price(self.pools[(self.reference_venue_id, asset)])
        return (p_v - p_r) / p_r

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
            raise InsufficientBalanceError(
                f"{holder} needs {amount} nano of asset {asset}, has {have}"
            )
        self.accounts.setdefault(holder, {})[asset] = have - amount

    def transfer(self, src: str, dst: str, asset: int, amount: int) -> None:
        self.debit(src, asset, amount)
        self.credit(dst, asset, amount)

    def asset_totals(self) -> dict[int, int]:
        """Per-asset totals over pools and accounts (nano-units)."""
        totals: dict[int, int] = {}
        get = totals.get
        numeraire = 0
        for pool in self.pools.values():
            totals[pool.base] = get(pool.base, 0) + pool.reserve_base
            numeraire += pool.reserve_quote
        totals[NUMERAIRE] = numeraire
        for balances in self.accounts.values():
            for asset, amount in balances.items():
                totals[asset] = get(asset, 0) + amount
        return totals

    def clone(self) -> "ChainState":
        copy = ChainState(
            {key: pool.clone() for key, pool in self.pools.items()}, self.reference_venue_id,
            self.threshold, {holder: dict(bal) for holder, bal in self.accounts.items()},
            self.block_height, self.beneficiary,
        )
        copy.decisions = self.decisions
        return copy
