"""Objective metrics and mode comparisons."""

import random
from itertools import combinations

import pytest

from chainbalancer import run_baseline_comparison, run_scenario
from chainbalancer.config import ValidationError, from_dict
from chainbalancer.market import snapshot_prices
from chainbalancer.metrics import (
    ObjectiveWeights,
    cumulative_discrepancy,
    deviation_pairs,
    discrepancy_pairs,
    epoch_constraint_check,
    max_relative_deviation,
    ordered_sum,
    scalarized_objective,
)
from chainbalancer.state import TREASURY
from chainbalancer.units import to_nano

from conftest import baseline_raw, make_pool


def discrepancy(venues):
    """cumulative_discrepancy of {venue: {asset: price}}, keyed like a run's pools."""
    keys = sorted((venue, asset) for venue, prices in venues.items() for asset in prices)
    prices = [venues[venue][asset] for venue, asset in keys]
    return cumulative_discrepancy(prices, discrepancy_pairs(keys))


class TestCumulativeDiscrepancy:
    def test_single_pair(self):
        assert discrepancy({0: {1: 100.0}, 1: {1: 103.0}}) == pytest.approx(3.0)

    def test_identical_venues(self):
        assert discrepancy({0: {1: 5.0}, 1: {1: 5.0}, 2: {1: 5.0}}) == 0.0

    def test_three_venues_pairwise(self):
        venues = {0: {1: 100.0}, 1: {1: 102.0}, 2: {1: 106.0}}
        assert discrepancy(venues) == pytest.approx(12.0)

    def test_relabeling_invariance(self):
        venues = {0: {1: 100.0}, 1: {1: 102.0}, 2: {1: 106.0}}
        relabeled = {5: {1: 106.0}, 9: {1: 100.0}, 7: {1: 102.0}}
        assert discrepancy(venues) == discrepancy(relabeled)

    def test_multi_asset_pairs_counted_once(self):
        venues = {0: {1: 10.0, 2: 20.0}, 1: {1: 11.0, 2: 18.0}}
        assert discrepancy(venues) == pytest.approx(3.0)

    def test_pair_order_venue_pairs_then_shared_assets(self):
        keys = [(0, 1), (0, 2), (0, 9), (1, 2), (1, 9), (2, 1), (2, 9)]
        assert discrepancy_pairs(keys) == [(1, 3), (2, 4), (0, 5), (2, 6), (4, 6)]

    def test_summed_left_to_right(self):
        """Plain `+=` from 0.0 in plan order, not a compensated sum."""
        prices = [0.0, 1e16, 1.0]  # the float spacing at 1e16 is 2.0
        assert cumulative_discrepancy(prices, [(1, 0), (2, 0), (2, 0)]) == 1e16
        assert cumulative_discrepancy(prices, [(2, 0), (2, 0), (1, 0)]) == 1e16 + 2.0


def test_ordered_sum_is_not_compensated():
    """Report means are plain left-to-right sums on every Python version;
    `sum()` returns 1.0 here from Python 3.12 on."""
    values = [1.0, 1e100, -1e100]
    assert ordered_sum(values) == 0.0
    assert epoch_constraint_check(values, 0.05).mean_psi == 0.0


def _old_sample(pools, reference_venue_id):
    """The per-block sampling before the flat snapshot: PriceVector-style
    per-venue dicts, combinations over venues, key-view intersections."""
    by_venue = {}
    for pool in pools:
        by_venue.setdefault(pool.venue_id, []).append(pool)
    vectors = [
        (venue, {p.base: p.reserve_quote / p.reserve_base for p in sorted(by_venue[venue], key=lambda p: p.base)})
        for venue in sorted(by_venue)
    ]
    total = 0.0
    for (_, prices_i), (_, prices_j) in combinations(vectors, 2):
        for asset in prices_i.keys() & prices_j.keys():
            total += abs(prices_i[asset] - prices_j[asset])
    reference = next(prices for venue, prices in vectors if venue == reference_venue_id)
    max_dev = 0.0
    for venue, prices in vectors:
        if venue == reference_venue_id:
            continue
        for asset, price in prices.items():
            p_ref = reference.get(asset)
            if p_ref:
                max_dev = max(max_dev, abs((price - p_ref) / p_ref))
    return total, max_dev


class TestFlatSnapshotSampling:
    def test_equals_per_venue_sampling(self):
        """Same floats, compared with ==, on random pool sets.

        Asset ids stay below 8, as in every shipped scenario: CPython
        iterates a set of such ints in ascending order, which is the order
        the per-venue code summed shared assets in.
        """
        rng = random.Random(20261018)
        for _ in range(400):
            n_venues = rng.randint(2, 6)
            reference = rng.randrange(n_venues)
            listed = list(range(1, rng.randint(2, 8)))
            pools = []
            for venue in range(n_venues):
                assets = listed if venue == reference else rng.sample(listed, rng.randint(1, len(listed)))
                for asset in sorted(assets):
                    pool = make_pool(venue, asset=asset, is_reference=venue == reference)
                    pool.reserve_base = rng.randint(1, 10**13)
                    pool.reserve_quote = rng.randint(1, 10**13)
                    pools.append(pool)
            keys = [(p.venue_id, p.base) for p in pools]
            prices = snapshot_prices(pools)
            new = (
                cumulative_discrepancy(prices, discrepancy_pairs(keys)),
                max_relative_deviation(prices, deviation_pairs(keys, reference)),
            )
            assert new == _old_sample(pools, reference)

    def test_no_venue_pairs(self):
        keys = [(0, 1), (0, 2)]
        assert discrepancy_pairs(keys) == []
        assert deviation_pairs(keys, 0) == []
        assert max_relative_deviation([1.0, 2.0], []) == 0.0


class TestScalarized:
    def test_example_values(self):
        w = ObjectiveWeights(lambda1=1.0, lambda2=0.1)
        assert scalarized_objective(12.0, 0.75, w) == pytest.approx(11.925)

    def test_lambda2_zero_reduces(self):
        w = ObjectiveWeights(lambda1=2.0, lambda2=0.0)
        assert scalarized_objective(12.0, 0.75, w) == pytest.approx(24.0)

    def test_pure_utilization_reward(self):
        w = ObjectiveWeights(lambda1=1.0, lambda2=1.0)
        assert scalarized_objective(0.0, 1.0, w) == pytest.approx(-1.0)

    def test_weight_validation(self):
        """The scenario loader is where objective weights are checked."""
        cases = [
            ({"lambda1": 0.0, "lambda2": 0.0}, "weights: lambda1 and lambda2 must not both be zero"),
            ({"lambda1": -1.0, "lambda2": 1.0}, "weights.lambda1:"),
        ]
        for weights, path in cases:
            with pytest.raises(ValidationError) as caught:
                from_dict(baseline_raw(weights=weights))
            assert [v for v in caught.value.violations if v.startswith(path)], weights


class TestConstraintCheck:
    def test_all_zero_satisfied(self):
        result = epoch_constraint_check([0.0] * 10, 0.05)
        assert result.satisfied and result.mean_psi == 0.0

    def test_violated_reports_mean(self):
        result = epoch_constraint_check([0.06] * 5, 0.05)
        assert not result.satisfied
        assert result.mean_psi == pytest.approx(0.06)

    def test_single_block_epoch(self):
        result = epoch_constraint_check([0.04], 0.05)
        assert result.satisfied and result.mean_psi == pytest.approx(0.04)

    def test_empty_epoch_rejected(self):
        with pytest.raises(ValueError):
            epoch_constraint_check([], 0.05)


@pytest.fixture(scope="module")
def comparison():
    config = from_dict(
        baseline_raw(
            blocks={"epochs": 3, "epoch_length": 10},
            governance={"allowed_funding": ["flash_loan"], "max_set_size": 16},
        )
    )
    return (
        config,
        run_baseline_comparison(config, ["off", "autobalancer", "external"], [11, 12]),
    )


class TestModeComparison:

    def test_user_phase_logs_identical_across_modes(self, comparison):
        _, result = comparison
        for i in range(2):
            digests = {
                result["per_mode"][m]["per_seed"][i]["user_flow_digest"]
                for m in ("off", "autobalancer", "external")
            }
            assert len(digests) == 1

    def test_external_mode_leaks_what_auto_captures(self, comparison):
        """Flash-loan funding: identical trades, different destination."""
        _, result = comparison
        for i in range(2):
            auto = result["per_mode"]["autobalancer"]["per_seed"][i]
            ext = result["per_mode"]["external"]["per_seed"][i]
            assert ext["captured"] == 0.0
            assert ext["leaked"] > 0.0
            assert ext["leaked"] == pytest.approx(auto["captured"], rel=0.05)

    def test_external_treasury_untouched(self, comparison):
        config, _ = comparison
        run = run_scenario(config, seed=11, mode="external")
        assert run.final_state.accounts.get(TREASURY)[0] == to_nano(config.treasury_numeraire)
        assert run.totals["leaked_nano"] > 0

    def test_autobalancer_reduces_discrepancy(self, comparison):
        _, result = comparison
        off = result["per_mode"]["off"]["mean_time_avg_discrepancy"]
        auto = result["per_mode"]["autobalancer"]["mean_time_avg_discrepancy"]
        assert auto < off

    def test_captured_equals_committed_profits(self, comparison):
        config, result = comparison
        run = run_scenario(config, seed=11, mode="autobalancer")
        committed = sum(r.profit for b in run.blocks for r in b.balancer_executed)
        assert run.totals["captured_nano"] == committed

    def test_unknown_mode_rejected(self, comparison):
        config, _ = comparison
        with pytest.raises(ValueError):
            run_baseline_comparison(config, ["off", "turbo"], [1])
