"""Pool math: spot prices, quotes, swaps, and snapshots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalancer import SwapDirection, execute_swap, quote_swap, spot_price
from chainbalancer.market import DegenerateVenueError, snapshot_prices
from chainbalancer.metrics import deviation_pairs
from chainbalancer.units import SCALE, to_nano, to_units

from conftest import make_pool


class TestSpotPrice:
    def test_ratio(self):
        assert spot_price(make_pool(1, reserve_asset=1000, reserve_numeraire=2000)) == 2.0

    def test_symmetric_reserves(self):
        assert spot_price(make_pool(1, reserve_asset=1000, reserve_numeraire=1000)) == 1.0

    def test_small_pool(self):
        assert spot_price(make_pool(1, reserve_asset=1, reserve_numeraire=3)) == 3.0

    def test_wrong_asset_rejected(self):
        with pytest.raises(ValueError):
            spot_price(make_pool(1, asset=1), asset=2)

    def test_degenerate_pool(self):
        pool = make_pool(1)
        pool.reserve_base = 0
        with pytest.raises(DegenerateVenueError):
            spot_price(pool)


class TestQuoteSwap:
    def test_no_fee(self):
        pool = make_pool(1)
        out = quote_swap(pool, SwapDirection.BASE_IN, to_nano(100))
        # 1000 - 10^6 / 1100
        assert to_units(out) == pytest.approx(90.90909090909, abs=1e-9)

    def test_with_fee_matches_exact_arithmetic(self):
        # independent recomputation in exact rationals:
        # out = 1000 - 10^6 / (1000 + 100 * 0.997)
        exact = Fraction(1000) - Fraction(10**6, 1) / (Fraction(1000) + Fraction(997, 10))
        pool = make_pool(1, fee=0.003)
        out = quote_swap(pool, SwapDirection.BASE_IN, to_nano(100))
        assert out == (exact.numerator * SCALE) // exact.denominator
        assert to_units(out) == pytest.approx(90.6610893880, abs=1e-9)

    def test_output_bounded_by_reserves(self):
        pool = make_pool(1, reserve_asset=50, reserve_numeraire=75)
        out = quote_swap(pool, SwapDirection.BASE_IN, to_nano(1_000_000))
        assert out < pool.reserve_quote

    def test_rejects_non_positive_input(self):
        with pytest.raises(ValueError):
            quote_swap(make_pool(1), SwapDirection.BASE_IN, 0)

    def test_is_pure(self):
        pool = make_pool(1)
        before = (pool.reserve_base, pool.reserve_quote)
        quote_swap(pool, SwapDirection.QUOTE_IN, to_nano(10))
        assert (pool.reserve_base, pool.reserve_quote) == before


class TestExecuteSwap:
    def test_reserves_after_swap(self):
        pool = make_pool(1)
        out = execute_swap(pool, SwapDirection.BASE_IN, to_nano(100))
        assert pool.reserve_base == to_nano(1100)
        assert pool.reserve_quote == to_nano(1000) - out
        assert to_units(pool.reserve_quote) == pytest.approx(909.0909090909, abs=1e-8)

    def test_two_swaps_compose(self):
        pool = make_pool(1, fee=0.003)
        twin = pool.clone()
        out1 = execute_swap(pool, SwapDirection.BASE_IN, to_nano(50))
        out2 = execute_swap(pool, SwapDirection.BASE_IN, to_nano(70))
        q1 = quote_swap(twin, SwapDirection.BASE_IN, to_nano(50))
        execute_swap(twin, SwapDirection.BASE_IN, to_nano(50))
        q2 = quote_swap(twin, SwapDirection.BASE_IN, to_nano(70))
        assert (out1, out2) == (q1, q2)

    def test_product_grows_with_fee(self):
        pool = make_pool(1, fee=0.003)
        before = pool.product
        execute_swap(pool, SwapDirection.QUOTE_IN, to_nano(25))
        assert pool.product > before

    def test_matches_quote_exactly(self):
        pool = make_pool(1, fee=0.01)
        quoted = quote_swap(pool, SwapDirection.QUOTE_IN, to_nano(33))
        executed = execute_swap(pool, SwapDirection.QUOTE_IN, to_nano(33))
        assert executed == quoted


reserves = st.integers(min_value=to_nano(10_000), max_value=to_nano(10_000_000))
amounts = st.integers(min_value=1_000, max_value=to_nano(5_000))
fees = st.sampled_from([0, 3_000_000, 10_000_000, 30_000_000])
directions = st.sampled_from([SwapDirection.BASE_IN, SwapDirection.QUOTE_IN])


class TestSwapProperties:
    @given(rb=reserves, rq=reserves, amount=amounts, fee=fees, direction=directions)
    @settings(max_examples=300, deadline=None)
    def test_product_monotone(self, rb, rq, amount, fee, direction):
        """k never decreases; with no fee it is equal to 1e-12 relative."""
        pool = make_pool(1)
        pool.reserve_base, pool.reserve_quote, pool.fee_ppb = rb, rq, fee
        k_pre = pool.product
        execute_swap(pool, direction, amount)
        k_post = pool.product
        assert k_post >= k_pre
        if fee == 0:
            assert (k_post - k_pre) / k_pre <= 1e-12

    @given(rb=reserves, rq=reserves, amount=amounts, fee=fees, direction=directions)
    @settings(max_examples=200, deadline=None)
    def test_quote_execute_agree(self, rb, rq, amount, fee, direction):
        pool = make_pool(1)
        pool.reserve_base, pool.reserve_quote, pool.fee_ppb = rb, rq, fee
        quoted = quote_swap(pool, direction, amount)
        executed = execute_swap(pool, direction, amount)
        assert executed == quoted

    @given(rb=reserves, rq=reserves, amount=amounts, fee=fees)
    @settings(max_examples=200, deadline=None)
    def test_spot_moves_against_the_flow(self, rb, rq, amount, fee):
        pool = make_pool(1)
        pool.reserve_base, pool.reserve_quote, pool.fee_ppb = rb, rq, fee
        p0 = spot_price(pool)
        execute_swap(pool, SwapDirection.BASE_IN, amount)
        assert spot_price(pool) < p0

        pool2 = make_pool(1)
        pool2.reserve_base, pool2.reserve_quote, pool2.fee_ppb = rb, rq, fee
        execute_swap(pool2, SwapDirection.QUOTE_IN, amount)
        assert spot_price(pool2) > p0

    @given(rb=reserves, rq=reserves, amount=amounts, fee=fees, direction=directions)
    @settings(max_examples=200, deadline=None)
    def test_pair_conserves_quantities(self, rb, rq, amount, fee, direction):
        """Pool plus trader hold the same totals before and after, exactly."""
        pool = make_pool(1)
        pool.reserve_base, pool.reserve_quote, pool.fee_ppb = rb, rq, fee
        trader = {1: amount, 0: amount}
        total_base = pool.reserve_base + trader[1]
        total_quote = pool.reserve_quote + trader[0]
        out = execute_swap(pool, direction, amount)
        if direction is SwapDirection.BASE_IN:
            trader[1] -= amount
            trader[0] += out
        else:
            trader[0] -= amount
            trader[1] += out
        assert pool.reserve_base + trader[1] == total_base
        assert pool.reserve_quote + trader[0] == total_quote


class TestSnapshot:
    def _pools(self):
        return [
            make_pool(0, asset=1, is_reference=True),
            make_pool(0, asset=2, is_reference=True),
            make_pool(1, asset=1),
            make_pool(1, asset=2),
            make_pool(2, asset=1),
            make_pool(2, asset=2),
        ]

    def test_shape(self):
        prices = snapshot_prices(self._pools())
        assert len(prices) == 6
        assert all(isinstance(p, float) for p in prices)

    def test_reference_labeled(self):
        pools = self._pools()
        keys = [(p.venue_id, p.base) for p in pools]
        pairs = deviation_pairs(keys, 0)
        assert {pools[r].venue_id for _, r in pairs} == {0}
        assert all(pools[v].base == pools[r].base for v, r in pairs)
        assert sorted(v for v, _ in pairs) == [2, 3, 4, 5]

    def test_identical_reserves_equal_vectors(self):
        prices = snapshot_prices(self._pools())
        assert prices[0:2] == prices[2:4] == prices[4:6]

    def test_spot_consistency(self):
        pools = self._pools()
        pools[3].reserve_quote = to_nano(1234.5)
        prices = snapshot_prices(pools)
        assert prices == [spot_price(pool) for pool in pools]
