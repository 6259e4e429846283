"""Reward splits, marketplace attribution, producer fees, slashing."""

import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalancer import load_scenario, run_scenario
from chainbalancer.chain import ExecRecord
from chainbalancer.config import from_dict
from chainbalancer.metrics import ordered_sum
from chainbalancer.rewards import (
    GROUP_MARKETPLACES,
    GROUP_SEARCHERS,
    GROUP_TREASURY,
    GROUPS,
    RewardWeights,
    WeightError,
    apply_slashing,
    build_ledger,
    exact_fraction,
    measure_contribution,
    pay_producer,
)
from chainbalancer.units import to_nano, to_units

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

W442 = RewardWeights.from_values(0.4, 0.4, 0.2)

# decimal weights as a scenario writes them, up to 18 places: in [0, 1], and
# anywhere in [-0.5, 1.5] (1 - a - b of two 18-place decimals is exact)
UNIT_DECIMALS = st.decimals(min_value=0, max_value=1, places=18)
DECIMALS = st.decimals(min_value="-0.5", max_value="1.5", places=18)


def assert_exact(ledger, weights, rho):
    """The ledger splits the contributions' sum exactly, to the nano: each
    group is allocated its weight times the pool, and no share is negative.
    Every payout floors by one rule: each share is floored but one, and that
    one, the treasury's among the groups and the highest venue id's among the
    venues, takes the rest, which exceeds its own floor by less than the
    number of shares in its split."""
    pool = sum(rho.values())
    for payouts, allocations, holder in (
        (ledger.payouts, ledger.allocations, GROUP_TREASURY),
        (ledger.marketplace_payouts, ledger.marketplace_allocations, max(rho, default=None)),
    ):
        assert payouts.keys() == allocations.keys()
        for key, payout in payouts.items():
            if key != holder:
                assert payout == int(allocations[key])
            else:
                assert 0 <= payout - int(allocations[key]) < len(allocations)
    assert ledger.profit_pool == pool
    assert ledger.allocations == {group: getattr(weights, group) * pool for group in GROUPS}
    assert sum(ledger.allocations.values()) == pool
    assert sum(ledger.payouts.values()) == pool
    assert all(v >= 0 for v in ledger.payouts.values())
    assert sum(ledger.marketplace_allocations.values()) == ledger.allocations[GROUP_MARKETPLACES]
    assert sum(ledger.marketplace_payouts.values()) == ledger.payouts[GROUP_MARKETPLACES]
    assert all(v >= 0 for v in ledger.marketplace_payouts.values())
    for venue, value in rho.items():
        assert ledger.marketplace_allocations[venue] == weights.marketplaces * value


class TestSplitPool:
    """Group allocations: omega * pool for each group, on an exact simplex."""

    def test_basic_split(self):
        ledger = build_ledger(W442, {1: 600, 2: 400})
        assert ledger.allocations == {
            GROUP_SEARCHERS: Fraction(400),
            GROUP_MARKETPLACES: Fraction(400),
            GROUP_TREASURY: Fraction(200),
        }
        assert ledger.payouts == {GROUP_SEARCHERS: 400, GROUP_MARKETPLACES: 400, GROUP_TREASURY: 200}

    def test_zero_pool(self):
        ledger = build_ledger(W442, {1: 0, 2: 0})
        assert ledger.profit_pool == 0
        assert all(v == 0 for v in ledger.allocations.values())
        assert all(v == 0 for v in ledger.payouts.values())
        assert ledger.marketplace_payouts == {1: 0, 2: 0}
        # a scenario whose only venue is the reference has no contributions
        assert build_ledger(W442, {}).marketplace_payouts == {}

    def test_searchers_take_all_at_boundary(self):
        ledger = build_ledger(RewardWeights.from_values(1, 0, 0), {1: 700, 2: 77})
        assert ledger.allocations[GROUP_SEARCHERS] == 777
        assert ledger.allocations[GROUP_MARKETPLACES] == 0
        assert ledger.allocations[GROUP_TREASURY] == 0
        assert ledger.marketplace_payouts == {1: 0, 2: 0}

    def test_simplex_violation_rejected(self):
        with pytest.raises(WeightError):
            RewardWeights.from_values(0.4, 0.4, 0.1)

    @pytest.mark.parametrize(
        "weights,total",
        [
            (("0.4000000000005", "0.6", "0"), "1.0000000000005"),
            (("0.3999999999995", "0.6", "0"), "0.9999999999995"),
            (("0.333333333333",) * 3, "0.999999999999"),
            # 0.1 + 0.2 as a float writes 0.30000000000000004, which a float sum shows as 1.0
            ((str(0.1 + 0.2), "0.3", "0.4"), "1.00000000000000004"),
            (("1/3", "1/3", "1/4"), "11/12"),
        ],
    )
    def test_near_simplex_rejected(self, weights, total):
        """A sum off 1 by any amount is rejected, parsed or built directly.
        Within 1e-12 of 1 the first three were accepted: the treasury was
        allocated the remainder, negative above 1 (and settlement aborted
        when the other groups' floors overran the pool), and more than its
        weight below 1."""
        message = f"weights sum to {total}, not 1"
        with pytest.raises(WeightError, match=f"^{re.escape(message)}$"):
            RewardWeights(*map(Fraction, weights))
        if "/" not in total:
            with pytest.raises(WeightError, match=f"^{re.escape(message)}$"):
                RewardWeights.from_values(*map(float, weights))

    @pytest.mark.parametrize(
        "weights,message",
        [
            (("-0.1", "0.5", "0.6"), "weight searchers=-0.1 outside [0, 1]"),
            (("0", "1.00000000000000001", "0"), "weight marketplaces=1.00000000000000001 outside [0, 1]"),
        ],
    )
    def test_weight_outside_the_unit_interval_rejected(self, weights, message):
        with pytest.raises(WeightError, match=f"^{re.escape(message)}$"):
            RewardWeights(*map(Fraction, weights))

    def test_checked_weights_cannot_be_changed(self):
        weights = RewardWeights.from_values(0.4, 0.4, 0.2)
        with pytest.raises(FrozenInstanceError):
            weights.treasury = Fraction(1)

    def test_negative_contribution_rejected(self):
        # venue 1 is not the remainder venue, so no overdraw would catch it
        with pytest.raises(ValueError, match="non-negative"):
            build_ledger(W442, {1: -1, 2: 100})

    @given(
        rho=st.dictionaries(
            st.integers(min_value=0, max_value=10**4),
            st.integers(min_value=0, max_value=10**18),
            min_size=1,
            max_size=6,
        ),
        weights=st.one_of(
            # two decimals and the third that completes them to 1, exactly
            st.tuples(UNIT_DECIMALS, UNIT_DECIMALS).map(lambda ab: (*ab, 1 - ab[0] - ab[1])),
            st.tuples(DECIMALS, DECIMALS, DECIMALS),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_sum_property(self, rho, weights):
        """Decimal weights either fail at construction or split every pool exactly."""
        exact = [Fraction(str(w)) for w in weights]
        on_simplex = all(0 <= w <= 1 for w in exact) and sum(exact) == 1
        try:
            w = RewardWeights.from_values(*weights)
        except WeightError:
            assert not on_simplex
            return
        assert on_simplex
        assert_exact(build_ledger(w, rho), w, rho)


class TestSplitMarketplaces:
    """Each venue is allocated exactly omega_marketplaces * rho_v."""

    def test_proportional(self):
        ledger = build_ledger(W442, {1: 750, 2: 250})
        assert ledger.marketplace_allocations == {1: Fraction(300), 2: Fraction(100)}
        assert ledger.marketplace_payouts == {1: 300, 2: 100}

    def test_single_venue_takes_all(self):
        ledger = build_ledger(W442, {7: 1000})
        assert ledger.marketplace_allocations == {7: Fraction(400)}
        assert ledger.marketplace_payouts == {7: 400}

    def test_symmetric_quarters(self):
        ledger = build_ledger(W442, {v: 250 for v in range(4)})
        assert all(s == 100 for s in ledger.marketplace_allocations.values())
        assert all(p == 100 for p in ledger.marketplace_payouts.values())

    def test_exact_proportionality_identity(self):
        """Random simplex weights and contributions: F_v == omega_m * rho_v, exactly."""
        rng = random.Random(5)
        for _ in range(200):
            a, b = sorted(rng.randint(0, 10**6) for _ in range(2))
            w = RewardWeights(
                Fraction(a, 10**6), Fraction(b - a, 10**6), Fraction(10**6 - b, 10**6)
            )
            rho = {i: rng.randrange(10**12) for i in range(rng.randint(1, 5))}
            assert_exact(build_ledger(w, rho), w, rho)


def record(venue, profit):
    return ExecRecord(
        asset=1,
        venue_id=venue,
        funding="flash_loan",
        profit=profit,
        delta_p_after=0.0,
    )


class TestMeasureContribution:
    def test_single_venue_attribution(self):
        assert measure_contribution([record(2, 100), record(2, 50)], [1, 2]) == {1: 0, 2: 150}

    def test_no_commits_all_zero(self):
        assert measure_contribution([], [1, 2, 3]) == {1: 0, 2: 0, 3: 0}

    def test_ratio_from_event_log(self):
        # independent tally straight from the records
        records = [record(1, to_nano(4)), record(1, to_nano(2)), record(2, to_nano(2))]
        expected = {}
        for r in records:
            expected[r.venue_id] = expected.get(r.venue_id, 0) + r.profit
        contribs = measure_contribution(records, [1, 2])
        assert contribs == expected
        assert contribs[1] == 3 * contribs[2]


HALF = Fraction(1, 2)


class TestPayProducer:
    def test_half_of_fees(self):
        assert pay_producer(to_nano(0.09), HALF) == to_nano(0.045)

    def test_no_balancer_txs(self):
        assert pay_producer(0, HALF) == 0

    def test_monotone_in_balancer_gas(self):
        fees = [pay_producer(f, HALF) for f in range(0, 10_000, 97)]
        assert fees == sorted(fees)

    def test_gamma_parsed_once_floors_as_parsing_it_per_block(self):
        # reference: gamma's decimal string parsed at every call
        gammas = (0.1, 0.3, 0.5, 0.7, 0.9, 0.123456789, 1e-9, 0.999999999, 1 / 3, 2 / 3)
        fees = [*range(0, 1_000), *(9 * 10**k + d for k in range(3, 19) for d in (-1, 0, 1))]
        for gamma in gammas:
            share = exact_fraction(gamma)
            for fee in fees:
                assert pay_producer(fee, share) == int(Fraction(str(gamma)) * fee), (gamma, fee)

    @given(
        fees=st.integers(0, 10**18),
        x=st.floats(0, 1, exclude_min=True, exclude_max=True),
    )
    def test_integer_floor_matches_the_fraction_product(self, fees, x):
        gamma = exact_fraction(x)
        assert pay_producer(fees, gamma) == int(gamma * fees)


def independent_inversion_check(executed, prescribed):
    """O(n^2) pairwise check written from scratch."""
    index = {t: i for i, t in enumerate(prescribed)}
    if any(t not in index for t in executed):
        return True
    for i in range(len(executed)):
        for j in range(i + 1, len(executed)):
            if index[executed[i]] > index[executed[j]]:
                return True
    return False


class TestSlashing:
    def test_subsequence_with_skip_is_clean(self):
        assert apply_slashing([1, 3], [1, 2, 3], penalty=100, producer_balance=1000) == 0

    def test_inversion_is_slashed(self):
        assert apply_slashing([3, 1], [1, 2, 3], penalty=100, producer_balance=1000) == 100

    def test_floor_at_balance(self):
        assert apply_slashing([3, 1], [1, 2, 3], penalty=100, producer_balance=40) == 40

    def test_honest_producer_never_slashed(self):
        """1000 random honest executions (ordered subsets) never fire."""
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randint(1, 8)
            prescribed = list(range(n))
            keep = sorted(rng.sample(prescribed, rng.randint(0, n)))
            assert apply_slashing(keep, prescribed, 100, 1000) == 0

    def test_matches_independent_checker_on_random_permutations(self):
        rng = random.Random(99)
        fired = 0
        for _ in range(2000):
            n = rng.randint(1, 8)
            prescribed = list(range(n))
            executed = rng.sample(prescribed, rng.randint(0, n))
            rng.shuffle(executed)
            expected = independent_inversion_check(executed, prescribed)
            slashed = apply_slashing(executed, prescribed, 100, 1000)
            assert (slashed > 0) == expected
            fired += slashed > 0
        assert fired > 100  # the sweep actually exercised both branches


def test_honest_producer_unslashed_with_large_venue_ids():
    """Templates are told apart by (asset, venue) for any venue id. Here the
    venues are {0, 1, 10001}: baseline's pools with venue 3 dropped and
    venue 2 renumbered. An id packed as (asset * 10_000 + venue) * 10 +
    funding gives (1, 10001) and (2, 1) the same value; that made an honest
    producer's order look permuted and slashed 1,323,000,000 nano here."""
    raw = yaml.safe_load((SCENARIOS / "baseline.yaml").read_text(encoding="utf-8"))
    raw["pools"] = [pool for pool in raw["pools"] if pool["venue"] != 3]
    for pool in raw["pools"]:
        if pool["venue"] == 2:
            pool["venue"] = 10001
    config = from_dict(raw)
    assert sorted({pool["venue"] for pool in raw["pools"]}) == [0, 1, 10001]
    assert (config.epochs, config.epoch_length, config.governance_window) == (10, 20, 4)
    assert config.dishonesty_rate == 0
    result = run_scenario(config, seed=2, mode="autobalancer")
    executed = {(r.asset, r.venue_id) for b in result.blocks for r in b.balancer_executed}
    assert {(1, 10001), (2, 1)} <= executed
    assert result.totals["slashed_nano"] == 0


class TestLedger:
    def test_ledger_exactness(self):
        records = [record(1, to_nano(6)), record(2, to_nano(2))]
        rho = measure_contribution(records, [1, 2])
        ledger = build_ledger(W442, rho)
        assert ledger.profit_pool == to_nano(8)
        assert_exact(ledger, W442, rho)


def test_epoch_rows_agree_with_their_block_rows():
    """Each epoch row is derived from that epoch's blocks alone. chaos.yaml
    in autobalancer mode forces reverts and slashes a dishonest producer,
    so every summed quantity is non-trivial somewhere."""
    config = load_scenario(SCENARIOS / "chaos.yaml")
    result = run_scenario(config, seed=config.seeds[0], mode="autobalancer")
    report = result.report()
    length = config.epoch_length
    assert sum(b.slashed for b in result.blocks) > 0
    assert any(s.kind == "revert" for b in result.blocks for s in b.balancer_skipped)
    assert len(report["epochs"]) == config.epochs
    for e, row in enumerate(report["epochs"]):
        blocks = result.blocks[e * length:(e + 1) * length]
        block_rows = report["blocks"][e * length:(e + 1) * length]
        assert [b.index for b in blocks] == [r["block"] for r in block_rows]
        profit = sum(r.profit for b in blocks for r in b.balancer_executed)
        assert row["profit_pool"] == to_units(profit)
        ledger = result.ledgers[e]
        assert ledger.profit_pool == profit
        assert row["reward_ledger"]["producer_fees"] == to_units(sum(b.producer_fee for b in blocks))
        assert row["reward_ledger"]["slashed"] == to_units(sum(b.slashed for b in blocks))
        assert row["constraint"]["mean_psi"] == ordered_sum(r["psi"] for r in block_rows) / length
