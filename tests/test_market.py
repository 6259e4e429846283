"""Pool math: spot prices, quotes, swaps, and snapshots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalancer import Pool, SwapDirection, execute_swap, quote_swap, spot_price
from chainbalancer.market import MAX_FEE_PPB, NUMERAIRE, snapshot_prices
from chainbalancer.metrics import deviation_pairs
from chainbalancer.units import SCALE, to_nano, to_units

from conftest import make_pool


def product(pool):
    """The reserve product k, which no swap decreases."""
    return pool.reserve_base * pool.reserve_quote


class TestPool:
    def test_rejects_an_empty_reserve(self):
        Pool(venue_id=1, base=1, reserve_base=1, reserve_quote=1)
        with pytest.raises(ValueError, match="reserve below 1 nano-unit"):
            Pool(venue_id=1, base=1, reserve_base=0, reserve_quote=1)
        with pytest.raises(ValueError, match="reserve below 1 nano-unit"):
            Pool(venue_id=1, base=1, reserve_base=1, reserve_quote=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("reserve_base", 1.5e9),
            ("reserve_quote", 2.0e9),
            ("fee_ppb", 0.5),
            ("reserve_base", True),
            ("fee_ppb", False),
        ],
    )
    def test_rejects_a_reserve_or_fee_that_is_not_an_int(self, field, value):
        # a float reserve turns quotes into floats and breaks isqrt in the sizing
        fields = {"reserve_base": 10**9, "reserve_quote": 10**9, "fee_ppb": 0, field: value}
        with pytest.raises(TypeError, match=f"pool 1: {field} must be an int"):
            Pool(venue_id=1, base=1, **fields)


    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"base": NUMERAIRE}, "pool 1: base must not be the numeraire"),
            ({"fee_ppb": MAX_FEE_PPB}, f"pool 1: fee {MAX_FEE_PPB} ppb out of [0, 10%) range"),
            ({"fee_ppb": -1}, "pool 1: fee -1 ppb out of [0, 10%) range"),
        ],
    )
    def test_rejects_a_numeraire_base_or_a_fee_out_of_range(self, fields, message):
        pool = {"base": 1, "reserve_base": 10**9, "reserve_quote": 10**9, **fields}
        with pytest.raises(ValueError) as err:
            Pool(venue_id=1, **pool)
        assert str(err.value) == message


class TestSpotPrice:
    def test_ratio(self):
        assert spot_price(make_pool(1, reserve_asset=1000, reserve_numeraire=2000)) == 2.0

    def test_symmetric_reserves(self):
        assert spot_price(make_pool(1, reserve_asset=1000, reserve_numeraire=1000)) == 1.0

    def test_small_pool(self):
        assert spot_price(make_pool(1, reserve_asset=1, reserve_numeraire=3)) == 3.0


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
        before = product(pool)
        execute_swap(pool, SwapDirection.QUOTE_IN, to_nano(25))
        assert product(pool) > before

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
        k_pre = product(pool)
        execute_swap(pool, direction, amount)
        k_post = product(pool)
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
            make_pool(0, asset=1),
            make_pool(0, asset=2),
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
