"""Closed-form sizing: exact expected profit, the exact integer floor of the
optimum, integer optimality, no-trade region."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbalancer.chain as chain_mod
from chainbalancer import Pool, load_scenario, optimal_trade_size, run_scenario, spot_price
from chainbalancer.market import SwapDirection, quote_swap
from chainbalancer.units import SCALE, fee_due, ppb

from conftest import make_pool

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("scenario", ["baseline", "chaos"])
@pytest.mark.parametrize("mode", ["autobalancer", "external"])
def test_realized_profit_equals_expected_profit(scenario, mode, monkeypatch):
    """Every committed execution realizes exactly the quoted profit."""
    original = chain_mod.execute_atomic
    commits = []

    def recording(state, opp, *args, **kwargs):
        result = original(state, opp, *args, **kwargs)
        if result.committed:
            commits.append((result.profit, opp.expected_profit))
        return result

    monkeypatch.setattr(chain_mod, "execute_atomic", recording)
    config = load_scenario(SCENARIOS / f"{scenario}.yaml")
    run_scenario(config, seed=config.seeds[0], mode=mode)
    assert len(commits) > 50
    assert all(realized == expected for realized, expected in commits)


def _quoted_net(cheap, dear, size, flash_ppb):
    """Integer round-trip net before gas, as the executed swaps would pay it."""
    bought = quote_swap(cheap, SwapDirection.QUOTE_IN, size)
    if bought == 0:
        return 0
    proceeds = quote_swap(dear, SwapDirection.BASE_IN, bought)
    return proceeds - size - fee_due(size, flash_ppb)


def test_floored_optimum_beats_nearby_integer_sizes():
    rng = random.Random(6)
    cases = 0
    for _ in range(1500):
        r = [10 ** rng.uniform(3, 7) for _ in range(4)]
        f_a, f_b = (rng.choice([0.0, 0.003, 0.01]) for _ in range(2))
        flash = rng.choice([0.0, 0.0009])
        a = make_pool(0, reserve_asset=r[0], reserve_numeraire=r[1], fee=f_a)
        b = make_pool(1, reserve_asset=r[2], reserve_numeraire=r[3], fee=f_b)
        cheap, dear = (a, b) if spot_price(a) < spot_price(b) else (b, a)
        size = optimal_trade_size(cheap, dear, ppb(flash))
        if size == 0:
            continue
        best = _quoted_net(cheap, dear, size, ppb(flash))
        for factor in (0.99, 0.999, 1.001, 1.01):
            other = max(1, int(size * factor))
            assert best >= _quoted_net(cheap, dear, other, ppb(flash)), (r, f_a, f_b, flash, factor)
            cases += 1
    assert cases > 2000


def _composed_coefficients(cheap, dear):
    """Exact A and B of out(x) = A x / (B + C x) from nano reserves and ppb fees."""
    g_cheap = Fraction(SCALE - cheap.fee_ppb, SCALE)
    g_dear = Fraction(SCALE - dear.fee_ppb, SCALE)
    a = g_cheap * g_dear * cheap.reserve_base * dear.reserve_quote
    b = Fraction(cheap.reserve_quote * dear.reserve_base)
    return a, b


def test_no_trade_region_returns_zero():
    # equal pools sit exactly on the boundary A == k B
    assert optimal_trade_size(make_pool(0), make_pool(1)) == 0

    rng = random.Random(7)
    inside = 0
    for _ in range(2000):
        r = [10 ** rng.uniform(3, 7) for _ in range(2)]
        gap = rng.uniform(0.0, 0.03)
        fee = rng.choice([0.0, 0.003, 0.01])
        flash = rng.choice([0.0, 0.0009])
        cheap = make_pool(0, reserve_asset=r[0], reserve_numeraire=r[1], fee=fee)
        dear = make_pool(1, reserve_asset=r[0], reserve_numeraire=r[1] * (1 + gap), fee=fee)
        a, b = _composed_coefficients(cheap, dear)
        if a > (1 + Fraction(flash)) * b * (1 - Fraction(1, 10**9)):
            continue
        inside += 1
        assert optimal_trade_size(cheap, dear, ppb(flash)) == 0
    assert inside > 200


RESERVES = st.integers(1, 10**39)  # nano-units


@settings(max_examples=500, deadline=None)
@given(
    reserves=st.tuples(RESERVES, RESERVES, RESERVES, RESERVES),
    fees=st.tuples(st.integers(0, 10**8 - 1), st.integers(0, 10**8 - 1)),
    flash_ppb=st.integers(0, 10**7 - 1),
)
def test_size_is_the_exact_floor_of_the_optimum(reserves, fees, flash_ppb):
    """With a, b, C and k as in `optimal_trade_size`, the real optimum x*
    solves k (C x* + b 10^18)^2 = a b 10^27, so s = floor(x*) is the one
    integer with k (C s + b 10^18)^2 <= a b 10^27 < k (C (s + 1) + b 10^18)^2.
    Inside the no-trade region a <= k b 10^9 the size is 0."""
    rb_c, rq_c, rb_d, rq_d = reserves
    cheap = Pool(venue_id=0, base=1, reserve_base=rb_c, reserve_quote=rq_c, fee_ppb=fees[0])
    dear = Pool(venue_id=1, base=1, reserve_base=rb_d, reserve_quote=rq_d, fee_ppb=fees[1])
    size = optimal_trade_size(cheap, dear, flash_ppb)
    assert isinstance(size, int)
    g_c, g_d = SCALE - fees[0], SCALE - fees[1]
    a = g_c * g_d * rb_c * rq_d
    b = rq_c * rb_d
    c = g_c * (SCALE * rb_d + g_d * rb_c)
    k = SCALE + flash_ppb
    if a <= k * b * SCALE:
        assert size == 0
        return
    target = a * b * 10**27
    assert k * (c * size + b * 10**18) ** 2 <= target < k * (c * (size + 1) + b * 10**18) ** 2
