"""Opportunity sizing and atomic arbitrage execution.

A balancer transaction closes the gap between one venue pool and the
reference pool for a single asset: buy where the asset is cheap, sell
where it is dear, both legs denominated in the numeraire. Funding is
chosen per transaction, against the live balance: network-owned
liquidity fronted by the beneficiary when it is allowed and covers the
size, otherwise a flash loan (repaid with a fee inside the same
transaction) when that is allowed. Either way the whole round trip is
quoted first and the commit-or-revert decision is made before any state
is written.

Sizing is closed-form. The two constant-product legs compose into one
curve out(x) = A x / (B + C x), so with k = 1 + flash_fee the profit
out(x) - k x peaks at x* = (sqrt(A B / k) - B) / C (coefficients in
`optimal_trade_size`). The size is x* floored to nano-units, and the
expected profit at that size is quoted with the same integer swap, fee
and gas arithmetic that executes the trade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .market import NUMERAIRE, Pool, SwapDirection, execute_swap, quote_swap
from .state import FEE_ESCROW, LENDER, TREASURY, ChainState
from .units import SCALE, fee_due, ppb, to_nano


class Funding(str, Enum):
    FLASH_LOAN = "flash_loan"
    NETWORK_LIQUIDITY = "network_liquidity"


@dataclass
class Threshold:
    """Trigger, cost and funding parameters for deviation arbitrage."""

    epsilon: float = 0.003        # relative deviation trigger
    flash_fee: float = 0.0009     # fraction of the borrowed size
    gas_price: float = 1e-7       # numeraire per gas unit
    gas_per_tx: int = 90_000      # gas of one balancer tx (flash-loan overhead included)
    allowed_funding: frozenset = frozenset(Funding)  # the kinds a balancer tx may use

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 <= self.flash_fee < 0.01:
            raise ValueError("flash_fee out of [0, 0.01) range")
        if self.gas_price < 0:
            raise ValueError("gas_price must be non-negative")
        self.flash_fee_ppb = ppb(self.flash_fee)
        self.gas_fee_nano = self.gas_per_tx * to_nano(self.gas_price)  # per balancer tx


@dataclass
class Opportunity:
    cheap: tuple[int, int]  # (venue_id, asset) of the pool the asset is bought on
    dear: tuple[int, int]   # (venue_id, asset) of the pool it is sold back to
    optimal_size: int       # nano-units of numeraire spent on the cheap leg
    expected_profit: int    # nano-units, net of flash fee and gas
    funding: Funding        # the kind chosen for this execution


@dataclass
class ExecutionResult:
    committed: bool
    profit: int = 0      # nano-units of numeraire added to the beneficiary
    reason: str = ""


def fee_band(fee_cheap: float, fee_dear: float, flash_fee: float = 0.0) -> float:
    """Half-width of the no-arbitrage region on the price-ratio scale.

    A marginal round trip (buy cheap, sell dear) is profitable only while
    p_dear/p_cheap > (1 + flash_fee) / ((1 - fee_cheap)(1 - fee_dear));
    the band is 1 - p_cheap/p_dear at that boundary.
    """
    return 1.0 - (1.0 - fee_cheap) * (1.0 - fee_dear) / (1.0 + flash_fee)


def deviation_bounds(
    fee_venue: float, fee_ref: float, flash_fee: float = 0.0
) -> tuple[float, float]:
    """No-arbitrage interval for the relative deviation (p_v - p_R)/p_R.

    The band is symmetric on the price-ratio scale. Re-expressed against
    the reference denominator the negative side stays at -band while the
    positive side widens to band/(1-band): when the venue trades above the
    reference, the gap is measured against the smaller of the two prices.
    """
    band = fee_band(fee_venue, fee_ref, flash_fee)
    return -band, band / (1.0 - band)


def optimal_trade_size(
    pool_cheap: Pool, pool_dear: Pool, flash_fee: float = 0.0
) -> tuple[float, float]:
    """Profit-maximizing numeraire input for a cheap->dear round trip.

    Returns (size, profit) in asset units; (0, 0) when no profitable size
    exists. The two constant-product legs compose into one curve,
    out(x) = A x / (B + C x), with A = g1 g2 Rb1 Rq2, B = Rq1 Rb2 and
    C = g1 (Rb2 + g2 Rb1), where g = 1 - fee and pool 1 is the cheap one.
    With k = 1 + flash_fee the profit out(x) - k x peaks at
    x* = (sqrt(A B / k) - B) / C, where it is (sqrt(A) - sqrt(k B))^2 / C;
    it is positive for some size iff A > k B. Gas is a fixed cost and does
    not move the maximizer, so callers subtract it afterwards.
    """
    g_cheap = 1.0 - pool_cheap.fee_ppb / SCALE
    g_dear = 1.0 - pool_dear.fee_ppb / SCALE
    rb_cheap = pool_cheap.reserve_base / SCALE
    rq_cheap = pool_cheap.reserve_quote / SCALE
    rb_dear = pool_dear.reserve_base / SCALE
    rq_dear = pool_dear.reserve_quote / SCALE
    a = g_cheap * g_dear * rb_cheap * rq_dear
    b = rq_cheap * rb_dear
    c = g_cheap * (rb_dear + g_dear * rb_cheap)
    k = 1.0 + flash_fee
    if a <= k * b:
        return 0.0, 0.0
    size = (math.sqrt(a * b / k) - b) / c
    profit = (math.sqrt(a) - math.sqrt(k * b)) ** 2 / c
    return size, profit


def _quote_round_trip(
    cheap: Pool, dear: Pool, size: int, loan_fee: int, gas_fee: int
) -> tuple[int, int]:
    """(asset bought, net numeraire profit) of spending `size` nano-units.

    Both legs are quoted on the current reserves with the integer swap
    arithmetic that executes them. When `bought == 0` the trade rounds
    away, there is nothing to sell back, and the profit reads 0.
    """
    bought = quote_swap(cheap, SwapDirection.QUOTE_IN, size)
    if bought == 0:
        return 0, 0
    proceeds = quote_swap(dear, SwapDirection.BASE_IN, bought)
    return bought, proceeds - size - loan_fee - gas_fee


def opportunity_from_deviation(
    state: ChainState,
    reference_venue_id: int,
    threshold: Threshold,
    asset: int,
    venue_id: int,
    delta_p: float,
    beneficiary: str = TREASURY,
) -> Opportunity | None:
    """Size and fund the trade behind a deviation; None when it does not clear the bar.

    `delta_p` is (p_venue - p_ref) / p_ref for `asset` on `venue_id`; its
    sign names the cheap pool. The bar is threefold: |delta_p| above the
    trigger, a closed-form optimal size that is at least one nano-unit once
    floored, and a positive profit after the flash fee and gas. That profit
    is quoted with the integer arithmetic `execute_atomic` runs, so on
    unchanged state the realized profit equals `expected_profit` to the
    nano-unit.

    Funding: network liquidity, sized without a loan fee, when it is allowed
    and the beneficiary's numeraire covers the size; else a flash loan, sized
    with the fee, when that is allowed; else network liquidity, which
    `execute_atomic` reverts as `insufficient_treasury`. With no kind
    allowed nothing is sized.
    """
    if abs(delta_p) <= threshold.epsilon:
        return None
    venue_key, ref_key = (venue_id, asset), (reference_venue_id, asset)
    cheap, dear = (ref_key, venue_key) if delta_p > 0 else (venue_key, ref_key)
    pool_cheap, pool_dear = state.pools[cheap], state.pools[dear]
    allowed = threshold.allowed_funding
    flash, size = Funding.FLASH_LOAN in allowed, 0
    if Funding.NETWORK_LIQUIDITY in allowed:
        size = int(optimal_trade_size(pool_cheap, pool_dear)[0] * SCALE)
        flash = flash and size > state.balance(beneficiary, NUMERAIRE)
    if flash:
        size = int(optimal_trade_size(pool_cheap, pool_dear, threshold.flash_fee)[0] * SCALE)
    if size <= 0:
        return None
    loan_fee = fee_due(size, threshold.flash_fee_ppb) if flash else 0
    _, net = _quote_round_trip(pool_cheap, pool_dear, size, loan_fee, threshold.gas_fee_nano)
    if net <= 0:
        return None
    funding = Funding.FLASH_LOAN if flash else Funding.NETWORK_LIQUIDITY
    return Opportunity(cheap, dear, size, net, funding)


def execute_atomic(
    state: ChainState,
    opp: Opportunity,
    threshold: Threshold,
    beneficiary: str = TREASURY,
    inject_fault: bool = False,
) -> ExecutionResult:
    """Run both legs atomically; commit only if the beneficiary cannot lose.

    The legs trade on distinct pools, so both outputs are pure functions of
    the pre-trade reserves: the round trip is quoted and the commit-or-revert
    decision made before anything is written, and a revert touches nothing.
    On commit the beneficiary's numeraire balance grows by the realized
    profit (proceeds minus loan repayment minus the gas fee) and every
    other balance it holds is unchanged. `inject_fault` forces a revert
    just before repayment, for fault-injection tests.
    """
    cheap, dear = state.pools[opp.cheap], state.pools[opp.dear]
    size = opp.optimal_size

    if opp.funding is Funding.FLASH_LOAN:
        if state.balance(LENDER, NUMERAIRE) < size:
            return ExecutionResult(False, reason="insufficient_lender")
        loan_fee = fee_due(size, threshold.flash_fee_ppb)
    else:
        if state.balance(beneficiary, NUMERAIRE) < size:
            return ExecutionResult(False, reason="insufficient_treasury")
        loan_fee = 0

    bought, profit = _quote_round_trip(cheap, dear, size, loan_fee, threshold.gas_fee_nano)
    if bought == 0:  # sub-nano trade rounded away; nothing to sell back
        return ExecutionResult(False, reason="insufficient_proceeds")
    if inject_fault:
        return ExecutionResult(False, reason="injected_fault")
    if profit < 0:
        return ExecutionResult(False, reason="insufficient_proceeds")

    execute_swap(cheap, SwapDirection.QUOTE_IN, size)
    execute_swap(dear, SwapDirection.BASE_IN, bought)
    # the beneficiary held the bought asset between the legs; its key stays
    state.credit(beneficiary, cheap.base, 0)
    if opp.funding is Funding.FLASH_LOAN:
        state.credit(LENDER, NUMERAIRE, loan_fee)
    state.credit(FEE_ESCROW, NUMERAIRE, threshold.gas_fee_nano)
    state.credit(beneficiary, NUMERAIRE, profit)
    return ExecutionResult(True, profit=profit)
