"""Opportunity sizing and atomic arbitrage execution.

A balancer transaction closes the gap between one venue pool and the
chain state's reference pool for a single asset: buy where it is cheap, sell
where it is dear, both legs denominated in the numeraire. Funding is
chosen per transaction, against the live balance: network-owned
liquidity fronted by the beneficiary when it is allowed and covers the
size, otherwise a flash loan (repaid with a fee inside the same
transaction) when that is allowed. Either way the whole round trip is
quoted first and the commit-or-revert decision is made before any state
is written.

Sizing is closed-form and integer-exact. The two constant-product legs
compose into one curve out(x) = A x / (B + C x), so with k = 1 + flash_fee
the profit out(x) - k x peaks at x* = (sqrt(A B / k) - B) / C. On nano
reserves and ppb fees `optimal_trade_size` computes the floor of x* with
`math.isqrt`, and returns 0 inside the no-trade region A <= k B. The
expected profit at that size is quoted with the same integer swap, fee
and gas arithmetic that executes the trade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .market import NUMERAIRE, Pool, SwapDirection, execute_swap, quote_swap
from .state import FEE_ESCROW, LENDER, ChainState
from .units import SCALE, fee_due, ppb, to_nano


class Funding(str, Enum):
    FLASH_LOAN = "flash_loan"
    NETWORK_LIQUIDITY = "network_liquidity"


@dataclass(frozen=True)
class Threshold:
    """Trigger, cost and funding parameters for deviation arbitrage."""

    epsilon: float = 0.003        # relative deviation trigger
    flash_fee: float = 0.0009     # fraction of the borrowed size
    gas_price: float = 1e-7       # numeraire per gas unit
    gas_per_tx: int = 90_000      # gas of one balancer tx (flash-loan overhead included)
    allowed_funding: frozenset = frozenset(Funding)  # the kinds a balancer tx may use

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it would switch the trigger off
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 <= self.flash_fee < 0.01:
            raise ValueError("flash_fee out of [0, 0.01) range")
        if not 0 <= self.gas_price < math.inf:
            raise ValueError(f"gas_price must be non-negative and finite, got {self.gas_price}")
        # an integer gas fee keeps the ledger exact to the nano-unit
        if isinstance(self.gas_per_tx, bool) or not isinstance(self.gas_per_tx, int):
            raise TypeError(f"gas_per_tx must be an int, got {self.gas_per_tx!r}")
        if self.gas_per_tx < 1:  # a block's balancer room divides by it
            raise ValueError("gas_per_tx must be at least 1")
        # frozen, so these match the fields; dataclasses.replace checks and derives anew
        object.__setattr__(self, "flash_fee_ppb", ppb(self.flash_fee))
        object.__setattr__(self, "gas_fee_nano", self.gas_per_tx * to_nano(self.gas_price))
        # only then does opportunity_from_deviation read the beneficiary's balance
        object.__setattr__(self, "reads_balance", frozenset(Funding) <= self.allowed_funding)


@dataclass(frozen=True, slots=True)
class Opportunity:
    cheap: tuple[int, int]  # (venue_id, asset) of the pool the asset is bought on
    dear: tuple[int, int]   # (venue_id, asset) of the pool it is sold back to
    optimal_size: int       # nano-units of numeraire spent on the cheap leg
    expected_profit: int    # nano-units, net of flash fee and gas
    funding: Funding        # the kind chosen for this execution


@dataclass(slots=True)
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


def optimal_trade_size(pool_cheap: Pool, pool_dear: Pool, flash_fee_ppb: int = 0) -> int:
    """Profit-maximizing numeraire input, in nano-units, of a cheap->dear round trip.

    With G = 10^9 - fee_ppb, c the cheap pool and d the dear one, all in
    nano-units and ppb:
      a = G_c G_d Rb_c Rq_d,  b = Rq_c Rb_d,  k = 10^9 + flash_fee_ppb,
      C = G_c (10^9 Rb_d + G_d Rb_c).
    No size is profitable iff a <= k b 10^9, and then the size is 0.
    Otherwise it is (isqrt(a b 10^27 // k) - b 10^18) // C. Every floor
    nests inside the next, so the result is exactly the floor of the real
    optimum x*. Gas is a fixed cost and does not move the maximizer, so
    callers subtract it afterwards.
    """
    g_cheap = SCALE - pool_cheap.fee_ppb
    g_dear = SCALE - pool_dear.fee_ppb
    a = g_cheap * g_dear * pool_cheap.reserve_base * pool_dear.reserve_quote
    b = pool_cheap.reserve_quote * pool_dear.reserve_base
    k = SCALE + flash_fee_ppb
    if a <= k * b * SCALE:
        return 0
    c = g_cheap * (SCALE * pool_dear.reserve_base + g_dear * pool_cheap.reserve_base)
    return (math.isqrt(a * b * 10**27 // k) - b * 10**18) // c


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
    state: ChainState, asset: int, venue_id: int, delta_p: float
) -> Opportunity | None:
    """Size and fund the trade behind a deviation; None when it does not clear the bar.

    `delta_p` is `state.deviation(venue_id, asset)`, whose trigger the
    caller (`chain.decide`) has already checked; its sign names the cheap
    pool. The bar is twofold: an `optimal_trade_size` of at least one
    nano-unit (the floor of the real optimum, with the flash fee when a
    loan funds it), and a positive profit after the flash fee and gas.
    That profit is quoted with the integer arithmetic `execute_atomic`
    runs, so on unchanged state the realized profit equals
    `expected_profit` to the nano-unit.

    The fee, the gas cost and the allowed funding kinds are the state's
    `threshold`. Funding: network liquidity, sized without a loan fee, when
    it is allowed and the numeraire of the state's beneficiary covers the
    size; else a flash loan, sized with the fee, when that is allowed; else
    network liquidity, which `execute_atomic` reverts as `insufficient_treasury`
    (the beneficiary's numeraire, in external mode the external account's,
    is short). With no kind allowed nothing is sized.
    """
    venue_key, ref_key = (venue_id, asset), (state.reference_venue_id, asset)
    cheap, dear = (ref_key, venue_key) if delta_p > 0 else (venue_key, ref_key)
    pool_cheap, pool_dear, threshold = state.pools[cheap], state.pools[dear], state.threshold
    allowed = threshold.allowed_funding
    flash, size = Funding.FLASH_LOAN in allowed, 0
    if Funding.NETWORK_LIQUIDITY in allowed:
        size = optimal_trade_size(pool_cheap, pool_dear)
        flash = flash and size > state.balance(state.beneficiary, NUMERAIRE)
    if flash:
        size = optimal_trade_size(pool_cheap, pool_dear, threshold.flash_fee_ppb)
    if size == 0:
        return None
    loan_fee = fee_due(size, threshold.flash_fee_ppb) if flash else 0
    _, net = _quote_round_trip(pool_cheap, pool_dear, size, loan_fee, threshold.gas_fee_nano)
    if net <= 0:
        return None
    funding = Funding.FLASH_LOAN if flash else Funding.NETWORK_LIQUIDITY
    return Opportunity(cheap, dear, size, net, funding)


def execute_atomic(
    state: ChainState, opp: Opportunity, inject_fault: bool = False
) -> ExecutionResult:
    """Run both legs atomically; commit only if the state's beneficiary cannot lose.

    The legs trade on distinct pools, so both outputs are pure functions of
    the pre-trade reserves: the round trip is quoted and the commit-or-revert
    decision made before anything is written, and a revert touches nothing.
    On commit the beneficiary's numeraire balance grows by the realized
    profit (proceeds minus loan repayment minus the gas fee, both set by
    the state's `threshold`) and every other balance it holds is unchanged;
    the gas fee goes to `FEE_ESCROW`, which the block step empties.
    `insufficient_treasury` means the beneficiary (external mode: the external account) is short.
    `inject_fault` forces a revert just before repayment, for
    fault-injection tests.
    """
    cheap, dear = state.pools[opp.cheap], state.pools[opp.dear]
    size, beneficiary, threshold = opp.optimal_size, state.beneficiary, state.threshold

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
