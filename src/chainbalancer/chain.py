"""Block production: user flow, the user phase, the balancer phase.

Each block runs two strictly ordered phases, each given its room as a
count of transactions. The user phase applies submitted swaps in arrival
order until the block's user room is full; the remainder carries to the
next block. The balancer phase then walks the epoch's active transaction
set in priority order while the block has room, re-validating each
trigger in `decide`, which turns a template into its skip or its sized
opportunity for both that phase and the searchers' proposals and keeps
one decision per template on the chain state, reused while nothing the
decision reads has moved.

A `Block` records only what differs from block to block: its txs, its
producer fee and slash, and the values sampled at its close. The block
capacity and the gas per tx are the run's constants, held by the runner.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from math import cos, exp, log, sqrt, tau
from random import Random
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .arbitrage import Funding, Opportunity, execute_atomic, opportunity_from_deviation
from .market import NUMERAIRE, SwapDirection, execute_swap
from .state import ChainState, InsufficientBalanceError, user_account


class UserTx:
    __slots__ = ("id", "venue_id", "asset", "direction", "amount_in", "submitter")

    def __init__(  # amount_in is in nano-units of the input asset
        self, id: int, venue_id: int, asset: int, direction: SwapDirection, amount_in: int,
        submitter: str,
    ) -> None:
        self.id, self.venue_id, self.asset, self.direction = id, venue_id, asset, direction
        self.amount_in, self.submitter = amount_in, submitter

    def __eq__(self, other: object) -> bool:
        if type(other) is not UserTx:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class ExecRecord(NamedTuple):
    """One committed balancer execution."""

    asset: int
    venue_id: int
    funding: Funding  # the kind the execution used
    profit: int
    delta_p_after: float  # acceptance criterion 1 reads it: the gap the commit left


class SkipRecord(NamedTuple):
    asset: int
    venue_id: int
    reason: str
    kind: str  # "skip" (not sized) or "revert" (sized, quoted, nothing written)


class Block:
    __slots__ = ("index", "user_txs", "balancer_executed", "balancer_skipped", "producer_fee",
                 "slashed", "utilization", "psi", "discrepancy", "max_abs_deviation")

    def __init__(
        self, index: int, user_txs: list[UserTx] | None = None,
        balancer_executed: list[ExecRecord] | None = None,
        balancer_skipped: list[SkipRecord] | None = None, producer_fee: int = 0, slashed: int = 0,
        # sampled after both phases and settlement: the block's share of the run's
        # capacity and its congestion cost psi, then two values of the closing prices
        utilization: float = 0.0, psi: float = 0.0,
        discrepancy: float = 0.0, max_abs_deviation: float = 0.0,
    ) -> None:
        self.index, self.producer_fee, self.slashed = index, producer_fee, slashed
        self.user_txs = [] if user_txs is None else user_txs
        self.balancer_executed = [] if balancer_executed is None else balancer_executed
        self.balancer_skipped = [] if balancer_skipped is None else balancer_skipped
        self.utilization, self.psi = utilization, psi
        self.discrepancy, self.max_abs_deviation = discrepancy, max_abs_deviation

    def __eq__(self, other: object) -> bool:
        if type(other) is not Block:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def profit(self) -> int:
        """Net profit of the committed balancer executions, nano-units."""
        return sum(r.profit for r in self.balancer_executed)


class UserFlowParams(NamedTuple):
    rate: float = 5.0
    size_mu: float = 2.0      # lognormal parameters, unit scale
    size_sigma: float = 0.5
    venue_weights: Mapping[int, float] = MappingProxyType({})  # read-only: a shared default
    num_users: int = 8


def standard_normal(random: Callable[[], float]) -> float:
    """One Box-Muller N(0, 1) draw from two uniforms in [0, 1).

    1 - u is at least 2**-53, so |z| never exceeds sqrt(106 ln 2) ~ 8.57.
    """
    return sqrt(-2.0 * log(1.0 - random())) * cos(tau * random())


def generate_user_flow(
    rng: Random,
    params: UserFlowParams,
    n_blocks: int,
    venue_assets: dict[int, list[int]],
) -> list[list[UserTx]]:
    """Per-block user transactions, a pure function of the generator state.

    Arrivals are Poisson(rate) per block; sizes lognormal(mu, sigma) in
    asset units; the venue is categorical on the configured weights, the
    asset uniform among the venue's listings, the direction a fair coin.
    """
    if params.rate == 0 or n_blocks == 0:
        return [[] for _ in range(n_blocks)]
    venues = sorted(params.venue_weights)
    cumulative = list(accumulate(params.venue_weights[v] for v in venues))
    cdf = [c / cumulative[-1] for c in cumulative]
    # the draws, in this order per tx, are the stream: venue, asset,
    # direction, size, submitter
    random = rng.random
    rate, mu, sigma = params.rate, params.size_mu, params.size_sigma
    num_users = params.num_users
    users = [user_account(i) for i in range(num_users)]
    base_in, quote_in = SwapDirection.BASE_IN, SwapDirection.QUOTE_IN
    flow: list[list[UserTx]] = []
    next_id = 0
    for _ in range(n_blocks):
        # Poisson(rate): the unit-rate exponential gaps that fit inside rate
        arrivals, elapsed = 0, -log(1.0 - random())
        while elapsed < rate:
            arrivals += 1
            elapsed -= log(1.0 - random())
        txs: list[UserTx] = []
        for _ in range(arrivals):
            venue = venues[bisect.bisect_right(cdf, random())]
            assets = venue_assets[venue]
            asset = assets[int(random() * len(assets))]
            direction = base_in if random() < 0.5 else quote_in
            amount_in = max(1, int(exp(mu + sigma * standard_normal(random)) * 1e9))
            submitter = users[int(random() * num_users)]
            txs.append(UserTx(next_id, venue, asset, direction, amount_in, submitter))
            next_id += 1
        flow.append(txs)
    return flow


class UserPhaseResult(NamedTuple):
    applied: list[UserTx]
    carried: list[UserTx]
    events: list[tuple[UserTx, str]]  # (tx, "applied" | "balance_deferred") in scan order


def execute_block_user_phase(
    state: ChainState, pending: Sequence[UserTx], room: int
) -> UserPhaseResult:
    """Apply user swaps in order until the block's user room is full.

    `room` is the number of user swaps the block holds. Once `room` txs
    have applied the scan stops; every tx behind them carries to the next
    block unchanged. A tx whose submitter cannot fund the input is
    individually deferred (to the back of the carry queue) without taking
    room or stopping the scan, so it is never dropped.
    """
    applied: list[UserTx] = []
    balance_deferred: list[UserTx] = []
    events: list[tuple[UserTx, str]] = []
    stop_index = len(pending)
    for i, tx in enumerate(pending):
        if len(applied) >= room:
            stop_index = i
            break
        pool = state.pools[(tx.venue_id, tx.asset)]
        pay_asset = tx.asset if tx.direction is SwapDirection.BASE_IN else NUMERAIRE
        get_asset = NUMERAIRE if tx.direction is SwapDirection.BASE_IN else tx.asset
        try:  # a short debit raises before it writes anything
            state.debit(tx.submitter, pay_asset, tx.amount_in)
        except InsufficientBalanceError:
            balance_deferred.append(tx)
            events.append((tx, "balance_deferred"))
            continue
        amount_out = execute_swap(pool, tx.direction, tx.amount_in)
        state.credit(tx.submitter, get_asset, amount_out)
        applied.append(tx)
        events.append((tx, "applied"))
    carried = list(pending[stop_index:]) + balance_deferred
    return UserPhaseResult(applied=applied, carried=carried, events=events)


def decide(state: ChainState, asset: int, venue_id: int) -> SkipRecord | Opportunity:
    """The template's skip (`below_epsilon` or `unprofitable`) or its sized opportunity.

    The decision reads `state.threshold`, the venue pool's and the
    reference pool's reserves and, only when the threshold allows both
    funding kinds, the beneficiary's numeraire (pool fees and the reference
    venue never change after genesis). `state.decisions` keeps one slot per
    `(venue_id, asset)`, keyed by all of those, and every clone of the
    state shares it, so a decision is made once and reused while none of
    them has moved. A reused decision is the same frozen object; a reused
    opportunity still goes to `execute_atomic`, which is never cached.
    """
    venue_key, threshold = (venue_id, asset), state.threshold
    pool, ref = state.pools[venue_key], state.pools[(state.reference_venue_id, asset)]
    key = (
        threshold,  # one object per run, so the tuple's == settles it by identity
        pool.reserve_base,
        pool.reserve_quote,
        ref.reserve_base,
        ref.reserve_quote,
        state.balance(state.beneficiary, NUMERAIRE) if threshold.reads_balance else None,
    )
    slot = state.decisions.get(venue_key)
    if slot is not None and slot[0] == key:
        return slot[1]
    delta = state.deviation(venue_id, asset)
    if abs(delta) <= threshold.epsilon:
        decision = SkipRecord(asset, venue_id, "below_epsilon", "skip")
    else:
        decision = opportunity_from_deviation(state, asset, venue_id, delta)
        if decision is None:
            decision = SkipRecord(asset, venue_id, "unprofitable", "skip")
    state.decisions[venue_key] = (key, decision)
    return decision


class BalancerPhaseResult(NamedTuple):
    executed: list[ExecRecord]
    skipped: list[SkipRecord]


def execute_block_balancer_phase(
    state: ChainState,
    templates: Sequence,
    room: int,
    fault_injector: Callable[[object], bool] | None = None,
) -> BalancerPhaseResult:
    """Walk the active set in priority order until `room` transactions commit.

    `room` is the number of balancer transactions the block's residual gas
    still holds; with room 0 nothing is attempted. Every candidate is
    re-validated against live state: user transactions earlier in the
    block may have closed (or opened) its gap. Failing candidates are
    skipped with a reason code, never aborting the walk. Reverted attempts
    leave no state change and take no room; each commit takes one, pays
    its gas fee into the fee escrow and its profit to `state.beneficiary`,
    all under `state.threshold`.
    """
    executed: list[ExecRecord] = []
    skipped: list[SkipRecord] = []
    for tpl in templates:
        if len(executed) >= room:
            break
        opp = decide(state, tpl.asset, tpl.venue_id)
        if isinstance(opp, SkipRecord):
            skipped.append(opp)
            continue
        inject = bool(fault_injector(tpl)) if fault_injector is not None else False
        result = execute_atomic(state, opp, inject_fault=inject)
        if result.committed:
            executed.append(
                ExecRecord(
                    asset=tpl.asset,
                    venue_id=tpl.venue_id,
                    funding=opp.funding,
                    profit=result.profit,
                    delta_p_after=state.deviation(tpl.venue_id, tpl.asset),
                )
            )
        else:
            skipped.append(SkipRecord(tpl.asset, tpl.venue_id, result.reason, "revert"))
    return BalancerPhaseResult(executed, skipped)

