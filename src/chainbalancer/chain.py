"""Block production: user flow, gas-bounded execution, balancer phase.

Each block runs two strictly ordered phases. The user phase applies
submitted swaps in arrival order until the next one would exceed the gas
capacity; the remainder carries to the next block. The balancer phase then
walks the epoch's active transaction set in priority order inside the
residual gas, re-validating every trigger against live state.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from math import cos, exp, log, sqrt, tau
from random import Random
from typing import Callable, Sequence

from .arbitrage import Funding, Threshold, execute_atomic, opportunity_from_deviation
from .market import NUMERAIRE, SwapDirection, execute_swap, spot_price
from .state import ChainState, user_account

DEFAULT_USER_GAS = 21_000


@dataclass
class UserTx:
    id: int
    venue_id: int
    asset: int
    direction: SwapDirection
    amount_in: int  # nano-units of the input asset
    gas: int
    submitter: str


@dataclass
class ExecRecord:
    """One committed balancer execution."""

    asset: int
    venue_id: int
    funding: Funding  # the kind the execution used
    size: int
    profit: int
    delta_p_before: float
    delta_p_after: float


@dataclass
class SkipRecord:
    asset: int
    venue_id: int
    reason: str
    kind: str  # "skip" (not sized) or "revert" (sized, quoted, nothing written)


@dataclass
class Block:
    index: int
    capacity: int
    user_txs: list[UserTx] = field(default_factory=list)
    balancer_executed: list[ExecRecord] = field(default_factory=list)
    balancer_skipped: list[SkipRecord] = field(default_factory=list)
    user_gas: int = 0
    balancer_gas: int = 0
    fees_collected: int = 0   # nano-numeraire gas fees paid by balancer txs
    producer_fee: int = 0
    slashed: int = 0
    # sampled from the closing prices, after both phases and settlement
    discrepancy: float = 0.0
    max_abs_deviation: float = 0.0

    @property
    def work(self) -> int:
        return self.user_gas + self.balancer_gas

    @property
    def profit(self) -> int:
        """Net profit of the committed balancer executions, nano-units."""
        return sum(r.profit for r in self.balancer_executed)


@dataclass
class UserFlowParams:
    rate: float = 5.0
    size_mu: float = 2.0      # lognormal parameters, unit scale
    size_sigma: float = 0.5
    venue_weights: dict[int, float] = field(default_factory=dict)
    num_users: int = 8
    gas_per_swap: int = DEFAULT_USER_GAS


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
    rate, mu, sigma, gas = params.rate, params.size_mu, params.size_sigma, params.gas_per_swap
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
            txs.append(UserTx(next_id, venue, asset, direction, amount_in, gas, submitter))
            next_id += 1
        flow.append(txs)
    return flow


@dataclass
class UserPhaseResult:
    applied: list[UserTx]
    carried: list[UserTx]
    events: list[tuple[UserTx, str]]  # (tx, "applied" | "balance_deferred") in scan order
    gas_used: int


def execute_block_user_phase(
    state: ChainState, pending: Sequence[UserTx], capacity: int
) -> UserPhaseResult:
    """Apply user swaps in order until the next would exceed capacity.

    The first tx that would overflow the gas budget stops the scan; it and
    everything behind it carry to the next block unchanged. A tx whose
    submitter cannot fund the input is individually deferred (to the back
    of the carry queue) without stopping the scan, so it is never dropped.
    """
    applied: list[UserTx] = []
    carried: list[UserTx] = []
    balance_deferred: list[UserTx] = []
    events: list[tuple[UserTx, str]] = []
    gas_used = 0
    stop_index = len(pending)
    for i, tx in enumerate(pending):
        if gas_used + tx.gas > capacity:
            stop_index = i
            break
        pool = state.pool(tx.venue_id, tx.asset)
        pay_asset = tx.asset if tx.direction is SwapDirection.BASE_IN else NUMERAIRE
        get_asset = NUMERAIRE if tx.direction is SwapDirection.BASE_IN else tx.asset
        if state.balance(tx.submitter, pay_asset) < tx.amount_in:
            balance_deferred.append(tx)
            events.append((tx, "balance_deferred"))
            continue
        state.debit(tx.submitter, pay_asset, tx.amount_in)
        amount_out = execute_swap(pool, tx.direction, tx.amount_in)
        state.credit(tx.submitter, get_asset, amount_out)
        gas_used += tx.gas
        applied.append(tx)
        events.append((tx, "applied"))
    carried = list(pending[stop_index:]) + balance_deferred
    return UserPhaseResult(applied=applied, carried=carried, events=events, gas_used=gas_used)


@dataclass
class BalancerPhaseResult:
    executed: list[ExecRecord]
    skipped: list[SkipRecord]

    @property
    def profit(self) -> int:
        """Net profit of the committed executions, nano-units."""
        return sum(r.profit for r in self.executed)


def _live_delta(state: ChainState, venue_id: int, asset: int, reference_venue_id: int) -> float:
    p_v = spot_price(state.pool(venue_id, asset))
    p_r = spot_price(state.pool(reference_venue_id, asset))
    return (p_v - p_r) / p_r


def execute_block_balancer_phase(
    state: ChainState,
    templates: Sequence,
    residual_gas: int,
    threshold: Threshold,
    reference_venue_id: int,
    beneficiary: str,
    fault_injector: Callable[[object], bool] | None = None,
) -> BalancerPhaseResult:
    """Walk the active set in priority order inside the residual gas.

    Every candidate is re-validated against live state: user transactions
    earlier in the block may have closed (or opened) its gap. Failing
    candidates are skipped with a reason code, never aborting the walk;
    the walk stops once the residual cannot cover one more transaction.
    Reverted attempts leave no state change and consume no work; each
    commit costs `threshold.gas_per_tx` gas and `threshold.gas_fee_nano`.
    """
    executed: list[ExecRecord] = []
    skipped: list[SkipRecord] = []
    for tpl in templates:
        if residual_gas < (len(executed) + 1) * threshold.gas_per_tx:
            break
        delta = _live_delta(state, tpl.venue_id, tpl.asset, reference_venue_id)
        if abs(delta) <= threshold.epsilon:
            skipped.append(SkipRecord(tpl.asset, tpl.venue_id, "below_epsilon", "skip"))
            continue
        opp = opportunity_from_deviation(
            state, reference_venue_id, threshold, tpl.asset, tpl.venue_id, delta, beneficiary
        )
        if opp is None:
            skipped.append(SkipRecord(tpl.asset, tpl.venue_id, "unprofitable", "skip"))
            continue
        inject = bool(fault_injector(tpl)) if fault_injector is not None else False
        result = execute_atomic(state, opp, threshold, beneficiary, inject_fault=inject)
        if result.committed:
            executed.append(
                ExecRecord(
                    asset=tpl.asset,
                    venue_id=tpl.venue_id,
                    funding=opp.funding,
                    size=opp.optimal_size,
                    profit=result.profit,
                    delta_p_before=delta,
                    delta_p_after=_live_delta(state, tpl.venue_id, tpl.asset, reference_venue_id),
                )
            )
        else:
            skipped.append(SkipRecord(tpl.asset, tpl.venue_id, result.reason, "revert"))
    return BalancerPhaseResult(executed, skipped)


def utilization(block: Block) -> float:
    """U = work/capacity, in [0, 1]."""
    return block.work / block.capacity


def performance_cost_psi(block: Block, u_star: float = 0.9) -> float:
    """Piecewise-linear congestion ramp: 0 below the knee, 1 at saturation."""
    u = utilization(block)
    if u <= u_star:
        return 0.0
    return (u - u_star) / (1.0 - u_star)
