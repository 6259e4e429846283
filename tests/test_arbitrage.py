"""Opportunity detection, trade sizing against a grid-search oracle, funding
choice, atomicity."""

import math
import random
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
import yaml

from chainbalancer import (
    Funding,
    Threshold,
    deviation_bounds,
    execute_atomic,
    fee_band,
    optimal_trade_size,
    spot_price,
)
from chainbalancer.arbitrage import opportunity_from_deviation
from chainbalancer.config import from_dict
from chainbalancer.runner import run_scenario
from chainbalancer.state import LENDER, TREASURY, ChainState
from chainbalancer.units import SCALE, ppb, to_nano, to_units

from conftest import make_pool, make_state


# --- independent sizing oracle -------------------------------------------
#
# Re-implements the round trip from scratch (no engine imports) and finds
# the optimum by pure grid scanning with local grid refinement. The first
# scan steps by 1e-4 of the scanned scale; each refinement scans 101 points
# across the two steps around the best point so far, so the step shrinks by
# 2/100 a round, and after 7 rounds it is upper/9999 * 0.02**7.

def oracle_profit(x, rq_c, rb_c, f_c, rb_d, rq_d, f_d, flash):
    a1 = x * (1.0 - f_c)
    mid = a1 * rb_c / (rq_c + a1)
    a2 = mid * (1.0 - f_d)
    back = a2 * rq_d / (rb_d + a2)
    return back - x * (1.0 + flash)


def _float_terms(pool_cheap, pool_dear):
    """The pools' reserves and fees in float units, in `oracle_profit` order."""
    return (
        pool_cheap.reserve_quote / SCALE,
        pool_cheap.reserve_base / SCALE,
        pool_cheap.fee_ppb / SCALE,
        pool_dear.reserve_base / SCALE,
        pool_dear.reserve_quote / SCALE,
        pool_dear.fee_ppb / SCALE,
    )


def oracle_profit_at(pool_cheap, pool_dear, flash, size):
    """The oracle's float profit of spending `size` nano-units."""
    return oracle_profit(size / SCALE, *_float_terms(pool_cheap, pool_dear), flash)


def grid_search_oracle(pool_cheap, pool_dear, flash, points=10_000, refine_points=101, rounds=7):
    terms = _float_terms(pool_cheap, pool_dear)

    upper = max(terms[0], terms[4])  # the larger numeraire reserve
    for _ in range(80):
        tail = oracle_profit(upper, *terms, flash)
        near = oracle_profit(0.999 * upper, *terms, flash)
        if tail <= near:
            break
        upper *= 2.0

    lo, hi, n = 0.0, upper, points
    for _ in range(1 + rounds):
        step = (hi - lo) / (n - 1)
        xs = [lo + i * step for i in range(n - 1)] + [hi]
        ps = [oracle_profit(x, *terms, flash) for x in xs]
        i = ps.index(max(ps))  # the first of equal maxima
        best_x, best_p = xs[i], ps[i]
        lo, hi, n = max(0.0, best_x - step), best_x + step, refine_points
    return best_x, best_p


# --- opportunity detection ------------------------------------------------

def opportunity(pools, thr, delta_p, funding=Funding.FLASH_LOAN):
    """The opportunity of asset 1 on venue 1 against reference venue 0, when
    `funding` is the one kind allowed."""
    state = ChainState(pools, 0, replace(thr, allowed_funding=frozenset({funding})))
    return opportunity_from_deviation(state, 1, 1, delta_p)


class TestDetectOpportunities:
    def test_direction_buys_where_cheaper(self):
        # venue above reference: the asset is cheaper on the reference
        pools = {
            (0, 1): make_pool(0, reserve_asset=100_000, reserve_numeraire=10_000_000),
            (1, 1): make_pool(1, reserve_asset=100_000, reserve_numeraire=10_300_000),
        }
        thr = Threshold(epsilon=0.005, flash_fee=0.0, gas_price=0.0)
        opp = opportunity(pools, thr, (103.0 - 100.0) / 100.0)
        assert opp is not None
        assert (opp.cheap, opp.dear) == ((0, 1), (1, 1))
        assert opp.expected_profit > 0

    def test_fee_band_swallows_gap(self):
        # 3% gap against 2% fees on each side: the oracle confirms no
        # profitable size exists, and the engine emits nothing
        cheap = make_pool(0, reserve_asset=10_000, reserve_numeraire=1_000_000, fee=0.02)
        dear = make_pool(1, reserve_asset=10_000, reserve_numeraire=1_030_000, fee=0.02)
        _, oracle_best = grid_search_oracle(cheap, dear, flash=0.0)
        assert oracle_best <= 0.0
        pools = {(0, 1): cheap, (1, 1): dear}
        thr = Threshold(epsilon=0.005, flash_fee=0.0, gas_price=0.0)
        assert opportunity(pools, thr, (103.0 - 100.0) / 100.0) is None


def test_threshold_rejects_gas_per_tx_below_one():
    with pytest.raises(ValueError, match="gas_per_tx must be at least 1"):
        Threshold(gas_per_tx=0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf], ids=["nan", "inf"])
def test_threshold_rejects_a_non_finite_epsilon(epsilon):
    # a NaN trigger compares false against every deviation, so nothing is below it
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        Threshold(epsilon=epsilon)


@pytest.mark.parametrize("flash_fee", [-0.001, 0.01, math.nan], ids=["negative", "one-percent", "nan"])
def test_threshold_rejects_a_flash_fee_out_of_range(flash_fee):
    with pytest.raises(ValueError, match=r"^flash_fee out of \[0, 0.01\) range$"):
        Threshold(flash_fee=flash_fee)


@pytest.mark.parametrize("gas_price", [math.nan, math.inf], ids=["nan", "inf"])
def test_threshold_rejects_a_non_finite_gas_price(gas_price):
    with pytest.raises(ValueError, match="gas_price must be non-negative and finite"):
        Threshold(gas_price=gas_price)


def test_a_threshold_is_frozen_and_a_replaced_one_is_checked_again():
    # every clone of a chain state shares one threshold, and decide's slots key on it
    threshold = Threshold()
    derived = ("flash_fee_ppb", "gas_fee_nano", "reads_balance")
    for name in [f.name for f in fields(Threshold)] + list(derived):
        with pytest.raises(FrozenInstanceError):
            setattr(threshold, name, getattr(threshold, name))
    variant = replace(threshold, gas_price=1.0, flash_fee=0.002, allowed_funding=frozenset())
    assert [getattr(variant, name) for name in derived] == [2_000_000, 90_000 * SCALE, False]
    assert threshold.gas_fee_nano == 9_000_000  # 90,000 gas at 1e-7
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        replace(threshold, epsilon=math.nan)


@pytest.mark.parametrize("gas_per_tx", [2.5, 90_000.0, True], ids=["fraction", "float", "bool"])
def test_threshold_rejects_a_gas_per_tx_that_is_not_an_int(gas_per_tx):
    # a float gas fee would make the escrow, and every numeraire total, a float
    with pytest.raises(TypeError, match="gas_per_tx must be an int"):
        Threshold(gas_per_tx=gas_per_tx)


class TestOptimalTradeSize:
    def test_matches_grid_oracle(self):
        cheap = make_pool(0, reserve_asset=1000, reserve_numeraire=1000)
        dear = make_pool(1, reserve_asset=1000, reserve_numeraire=1100)
        size = optimal_trade_size(cheap, dear)
        oracle_size, oracle_best = grid_search_oracle(cheap, dear, flash=0.0)
        assert oracle_profit_at(cheap, dear, 0.0, size) == pytest.approx(oracle_best, rel=1e-5)
        assert to_units(size) == pytest.approx(oracle_size, rel=1e-3)

    def test_equal_pools_yield_nothing(self):
        a = make_pool(0)
        b = make_pool(1)
        assert optimal_trade_size(a, b) == 0

    def test_local_optimality_probe(self):
        cheap = make_pool(0, reserve_asset=2000, reserve_numeraire=1960, fee=0.003)
        dear = make_pool(1, reserve_asset=2000, reserve_numeraire=2040, fee=0.003)
        size = optimal_trade_size(cheap, dear, ppb(0.0009))
        assert size > 0
        profit = oracle_profit_at(cheap, dear, 0.0009, size)
        assert profit >= oracle_profit_at(cheap, dear, 0.0009, size // 2)
        assert profit >= oracle_profit_at(cheap, dear, 0.0009, 2 * size)

    def test_role_swap_mirrors_direction_same_profit(self):
        """Negating the deviation (swap venue/reference roles) swaps which
        pool key is cheap but prices the identical physical trade."""
        low = make_pool(0, reserve_asset=5000, reserve_numeraire=5000, fee=0.003)
        high = make_pool(1, reserve_asset=5000, reserve_numeraire=5150, fee=0.003)
        thr = Threshold(epsilon=0.003, flash_fee=0.0009, gas_price=0.0)

        pools_a = {(0, 1): low, (1, 1): high}
        delta_a = (spot_price(high) - spot_price(low)) / spot_price(low)
        opp_a = opportunity(pools_a, thr, delta_a)

        low2, high2 = low.clone(), high.clone()
        low2.venue_id = 1
        high2.venue_id = 0
        pools_b = {(0, 1): high2, (1, 1): low2}
        delta_b = (spot_price(low2) - spot_price(high2)) / spot_price(high2)
        opp_b = opportunity(pools_b, thr, delta_b)

        assert opp_a is not None and opp_b is not None
        assert delta_a > 0 > delta_b
        # the same pool is cheap in both: the low one, at key (0, 1) then (1, 1)
        assert (opp_a.cheap, opp_a.dear) == ((0, 1), (1, 1))
        assert (opp_b.cheap, opp_b.dear) == ((1, 1), (0, 1))
        assert abs(opp_a.expected_profit - opp_b.expected_profit) <= 1
        assert abs(opp_a.optimal_size - opp_b.optimal_size) <= 1

    def test_randomized_oracle_sweep(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(60):
            r = [10 ** rng.uniform(3, 7) for _ in range(4)]
            f_c, f_d = (rng.choice([0.0, 0.003, 0.01]) for _ in range(2))
            flash = rng.choice([0.0, 0.0009])
            a = make_pool(0, reserve_asset=r[0], reserve_numeraire=r[1], fee=f_c)
            b = make_pool(1, reserve_asset=r[2], reserve_numeraire=r[3], fee=f_d)
            cheap, dear = (a, b) if spot_price(a) < spot_price(b) else (b, a)
            size = optimal_trade_size(cheap, dear, ppb(flash))
            _, oracle_best = grid_search_oracle(cheap, dear, flash)
            if oracle_best <= 0:
                assert size == 0
            else:
                profit = oracle_profit_at(cheap, dear, flash, size)
                assert profit == pytest.approx(oracle_best, rel=1e-5)
                checked += 1
        assert checked > 10


def _arb_fixture(flash_fee=0.0009, gap=0.03, fee=0.003, gas_price=1e-7):
    ref = make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, fee=fee)
    venue = make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5000 * (1 + gap), fee=fee)
    thr = Threshold(epsilon=0.003, flash_fee=flash_fee, gas_price=gas_price)
    state = make_state([ref, venue], threshold=thr)
    p_r, p_v = spot_price(ref), spot_price(venue)
    return state, (p_v - p_r) / p_r, thr


class TestExecuteAtomic:
    def test_flash_loan_commit_books_net_profit(self):
        state, delta, thr = _arb_fixture()
        opp = opportunity(state.pools, thr, delta)
        assert opp is not None
        lender_before = state.balance(LENDER, 0)
        treasury_before = state.balance(TREASURY, 0)
        result = execute_atomic(state, opp)
        assert result.committed
        assert result.profit > 0
        assert state.balance(TREASURY, 0) == treasury_before + result.profit
        # the lender earned exactly the flash fee
        assert state.balance(LENDER, 0) - lender_before == -(-opp.optimal_size * thr.flash_fee_ppb // SCALE)

    def test_repayment_arithmetic(self):
        # borrow 100 at 9 bps: repay 100.09; proceeds 104 leave 3.91 before gas
        size = to_nano(100)
        fee = -(-size * Threshold(flash_fee=0.0009).flash_fee_ppb // SCALE)
        assert to_units(size + fee) == pytest.approx(100.09, abs=1e-12)
        assert to_units(to_nano(104) - (size + fee)) == pytest.approx(3.91, abs=1e-12)

    def test_injected_fault_restores_state_exactly(self):
        state, delta, thr = _arb_fixture()
        opp = opportunity(state.pools, thr, delta)
        before = state.clone()
        result = execute_atomic(state, opp, inject_fault=True)
        assert not result.committed and result.reason == "injected_fault"
        assert state.pools[(0, 1)].reserve_base == before.pools[(0, 1)].reserve_base
        assert state.pools[(1, 1)].reserve_quote == before.pools[(1, 1)].reserve_quote
        assert state.accounts == before.accounts

    def test_unprofitable_after_costs_reverts(self):
        # gas so expensive that proceeds cannot cover it
        state, delta, thr = _arb_fixture(gas_price=1.0)
        opp = opportunity(state.pools, thr, delta)
        # detection already refuses it: net profit would be negative
        assert opp is None

    def test_network_liquidity_insufficient_treasury(self):
        state, delta, thr = _arb_fixture()
        opp = opportunity(state.pools, thr, delta, Funding.NETWORK_LIQUIDITY)
        assert opp is not None
        state.accounts[TREASURY][0] = opp.optimal_size - 1
        before = state.clone()
        result = execute_atomic(state, opp)
        assert not result.committed and result.reason == "insufficient_treasury"
        assert state.accounts.get(TREASURY) == before.accounts.get(TREASURY)
        assert state.pools[(0, 1)].reserve_base == before.pools[(0, 1)].reserve_base

    def test_revert_leaves_no_phantom_holder(self):
        # no lender account at all: the flash loan cannot be funded
        state, delta, thr = _arb_fixture()
        opp = opportunity(state.pools, thr, delta)
        del state.accounts[LENDER]
        before = state.clone()
        result = execute_atomic(state, opp)
        assert not result.committed and result.reason == "insufficient_lender"
        assert state.accounts == before.accounts

    def test_no_inventory_risk_per_asset(self):
        state, delta, thr = _arb_fixture()
        for funding in (Funding.FLASH_LOAN, Funding.NETWORK_LIQUIDITY):
            opp = opportunity(state.pools, thr, delta, funding)
            if opp is None:
                continue
            before = {a: state.balance(TREASURY, a) for a in (0, 1)}
            result = execute_atomic(state, opp)
            after = {a: state.balance(TREASURY, a) for a in (0, 1)}
            if result.committed:
                assert after[0] >= before[0]
                assert after[1] == before[1]
            else:
                assert after == before


class TestDeviationContraction:
    @pytest.mark.parametrize("gap", [0.03, -0.03, 0.012, -0.012])
    def test_contraction_into_directional_band(self, gap):
        state, delta, thr = _arb_fixture(gap=gap)
        opp = opportunity(state.pools, thr, delta)
        assert opp is not None
        result = execute_atomic(state, opp)
        assert result.committed
        p_v = spot_price(state.pools[(1, 1)])
        p_r = spot_price(state.pools[(0, 1)])
        after = (p_v - p_r) / p_r
        lo, hi = deviation_bounds(0.003, 0.003, thr.flash_fee)
        assert abs(after) < abs(delta)
        assert lo - 1e-9 <= after <= hi + 1e-9

    def test_band_formula(self):
        band = fee_band(0.003, 0.003, 0.0009)
        assert band == pytest.approx(1 - 0.997 * 0.997 / 1.0009, abs=1e-15)
        lo, hi = deviation_bounds(0.003, 0.003, 0.0009)
        assert lo == -band
        assert hi == pytest.approx(band / (1 - band), abs=1e-15)


ROOT = Path(__file__).resolve().parent.parent
BOTH = frozenset(Funding)


def _scaled_baseline(allowed_funding):
    """baseline.yaml with every reserve scaled so the largest is 10^12 units,
    so no trade's size fits in the treasury's 10^6; autobalancer, seed 42."""
    raw = yaml.safe_load((ROOT / "scenarios" / "baseline.yaml").read_text(encoding="utf-8"))
    top = max(max(p["reserve_asset"], p["reserve_numeraire"]) for p in raw["pools"])
    for pool in raw["pools"]:
        pool["reserve_asset"] *= 1e12 / top
        pool["reserve_numeraire"] *= 1e12 / top
    raw["governance"]["allowed_funding"] = allowed_funding
    return run_scenario(from_dict(raw), seed=42, mode="autobalancer")


class TestFundingChoice:
    """Network liquidity when the beneficiary covers the size, else a flash
    loan when one is allowed, else the insufficient_treasury revert."""

    def _sized(self, allowed=BOTH, treasury=None, lender=None):
        """The fixture's opportunity, after setting the treasury's and the
        lender's numeraire; `treasury` is relative to the fee-free size."""
        state, delta, thr = _arb_fixture()
        thr = state.threshold = replace(thr, allowed_funding=allowed)
        free = optimal_trade_size(state.pools[(0, 1)], state.pools[(1, 1)])
        if treasury is not None:
            state.accounts[TREASURY][0] = free + treasury
        if lender is not None:
            state.accounts[LENDER][0] = lender
        return state, thr, free, opportunity_from_deviation(state, 1, 1, delta)

    def test_treasury_covers_the_size(self):
        state, thr, free, opp = self._sized(treasury=0)
        assert opp.funding is Funding.NETWORK_LIQUIDITY
        assert opp.optimal_size == free  # sized without a loan fee
        lender_before = state.balance(LENDER, 0)
        result = execute_atomic(state, opp)
        assert result.committed and result.profit == opp.expected_profit
        assert state.balance(LENDER, 0) == lender_before

    def test_treasury_short_falls_back_to_a_flash_loan(self):
        state, thr, free, opp = self._sized(treasury=-1)
        assert opp.funding is Funding.FLASH_LOAN
        pools = state.pools[(0, 1)], state.pools[(1, 1)]
        flash = optimal_trade_size(*pools, thr.flash_fee_ppb)
        assert opp.optimal_size == flash < free  # sized with the loan fee
        lender_before = state.balance(LENDER, 0)
        result = execute_atomic(state, opp)
        assert result.committed and result.profit == opp.expected_profit
        assert state.balance(LENDER, 0) - lender_before == -(-flash * thr.flash_fee_ppb // SCALE)

    def test_treasury_short_with_network_liquidity_only_reverts(self):
        state, thr, free, opp = self._sized({Funding.NETWORK_LIQUIDITY}, treasury=-1)
        assert opp.funding is Funding.NETWORK_LIQUIDITY and opp.optimal_size == free
        before = state.clone()
        result = execute_atomic(state, opp)
        assert not result.committed and result.reason == "insufficient_treasury"
        assert state.accounts == before.accounts

    def test_treasury_and_lender_short_reverts_on_the_lender(self):
        state, thr, _, opp = self._sized(treasury=-1, lender=0)
        assert opp.funding is Funding.FLASH_LOAN
        before = state.clone()
        result = execute_atomic(state, opp)
        assert not result.committed and result.reason == "insufficient_lender"
        assert state.accounts == before.accounts

    def test_scaled_baseline_commits_by_flash_loan(self):
        both = _scaled_baseline(["flash_loan", "network_liquidity"])
        records = [r for b in both.blocks for r in b.balancer_executed]
        assert len(records) > 0
        assert {r.funding for r in records} == {Funding.FLASH_LOAN}
        # the treasury never covers a size, so the run is the flash-only one
        assert both.totals == _scaled_baseline(["flash_loan"]).totals
