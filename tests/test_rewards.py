"""Reward splits, marketplace attribution, producer fees, slashing."""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalancer import load_scenario, run_scenario
from chainbalancer.chain import Block, ExecRecord
from chainbalancer.metrics import ordered_sum
from chainbalancer.rewards import (
    GROUP_MARKETPLACES,
    GROUP_SEARCHERS,
    GROUP_TREASURY,
    MarketplaceContribution,
    RewardWeights,
    WeightError,
    apply_slashing,
    build_ledger,
    measure_contribution,
    pay_producer,
    quantize_allocations,
    split_marketplaces,
    split_pool,
)
from chainbalancer.units import to_nano, to_units


W442 = RewardWeights.from_values(0.4, 0.4, 0.2)


class TestSplitPool:
    def test_basic_split(self):
        allocs = split_pool(1000, W442)
        assert allocs == {
            GROUP_SEARCHERS: Fraction(400),
            GROUP_MARKETPLACES: Fraction(400),
            GROUP_TREASURY: Fraction(200),
        }

    def test_zero_pool(self):
        assert all(v == 0 for v in split_pool(0, W442).values())

    def test_searchers_take_all_at_boundary(self):
        allocs = split_pool(777, RewardWeights.from_values(1, 0, 0))
        assert allocs[GROUP_SEARCHERS] == 777
        assert allocs[GROUP_MARKETPLACES] == 0
        assert allocs[GROUP_TREASURY] == 0

    def test_simplex_violation_rejected(self):
        with pytest.raises(WeightError):
            RewardWeights.from_values(0.4, 0.4, 0.1)
        with pytest.raises(WeightError):
            split_pool(100, RewardWeights(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))

    def test_near_simplex_accepted(self):
        # within the 1e-12 tolerance, the treasury absorbs the residue
        w = RewardWeights(
            Fraction("0.333333333333"),
            Fraction("0.333333333333"),
            Fraction("0.333333333334"),
        )
        allocs = split_pool(10**12, w)
        assert sum(allocs.values()) == 10**12

    @given(
        pool=st.integers(min_value=0, max_value=10**15),
        a=st.integers(min_value=0, max_value=1000),
        b=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_sum_property(self, pool, a, b):
        total = a + b
        if total > 1000:
            a, b = a % 500, b % 500
            total = a + b
        w = RewardWeights(Fraction(a, 1000), Fraction(b, 1000), Fraction(1000 - a - b, 1000))
        allocs = split_pool(pool, w)
        assert sum(allocs.values()) == pool
        payouts = quantize_allocations(allocs, pool, GROUP_TREASURY)
        assert sum(payouts.values()) == pool
        assert all(v >= 0 for v in payouts.values())


class TestSplitMarketplaces:
    def test_proportional(self):
        shares, diverted = split_marketplaces(
            Fraction(400),
            [MarketplaceContribution(1, 3), MarketplaceContribution(2, 1)],
        )
        assert not diverted
        assert shares == {1: Fraction(300), 2: Fraction(100)}

    def test_single_venue_takes_all(self):
        shares, _ = split_marketplaces(Fraction(400), [MarketplaceContribution(7, 5)])
        assert shares == {7: Fraction(400)}

    def test_symmetric_quarters(self):
        shares, _ = split_marketplaces(
            Fraction(100), [MarketplaceContribution(v, 1) for v in range(4)]
        )
        assert all(s == 25 for s in shares.values())

    def test_zero_contributions_divert(self):
        shares, diverted = split_marketplaces(
            Fraction(100), [MarketplaceContribution(1, 0), MarketplaceContribution(2, 0)]
        )
        assert diverted
        assert all(s == 0 for s in shares.values())

    def test_exact_proportionality_identity(self):
        """F_l * sum(rho) == group_allocation * rho_l, exactly."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            rhos = [int(x) for x in rng.integers(0, 10**12, size=rng.integers(1, 6))]
            if sum(rhos) == 0:
                continue
            alloc = Fraction(int(rng.integers(0, 10**15)))
            contribs = [MarketplaceContribution(i, r) for i, r in enumerate(rhos)]
            shares, _ = split_marketplaces(alloc, contribs)
            total_rho = sum(rhos)
            for contrib in contribs:
                assert shares[contrib.venue_id] * total_rho == alloc * contrib.rho
            assert sum(shares.values()) == alloc


def record(venue, profit):
    return ExecRecord(
        template_id=venue,
        asset=1,
        venue_id=venue,
        direction="buy_on_ref_sell_on_venue",
        funding="flash_loan",
        size=0,
        profit=profit,
        gas_used=90_000,
        delta_p_before=0.0,
        delta_p_after=0.0,
    )


class TestMeasureContribution:
    def test_single_venue_attribution(self):
        contribs = measure_contribution([record(2, 100), record(2, 50)], [1, 2])
        assert {c.venue_id: c.rho for c in contribs} == {1: 0, 2: 150}

    def test_no_commits_all_zero(self):
        contribs = measure_contribution([], [1, 2, 3])
        assert all(c.rho == 0 for c in contribs)

    def test_ratio_from_event_log(self):
        # independent tally straight from the records
        records = [record(1, to_nano(4)), record(1, to_nano(2)), record(2, to_nano(2))]
        expected = {}
        for r in records:
            expected[r.venue_id] = expected.get(r.venue_id, 0) + r.profit
        contribs = {c.venue_id: c.rho for c in measure_contribution(records, [1, 2])}
        assert contribs == expected
        assert contribs[1] == 3 * contribs[2]


class TestPayProducer:
    def test_half_of_fees(self):
        block = Block(index=0, capacity=10**6, fees_collected=to_nano(0.09))
        assert pay_producer(block, 0.5) == to_nano(0.045)

    def test_no_balancer_txs(self):
        assert pay_producer(Block(index=0, capacity=10**6), 0.5) == 0

    def test_gamma_domain_open(self):
        block = Block(index=0, capacity=10**6, fees_collected=100)
        for gamma in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pay_producer(block, gamma)

    def test_monotone_in_balancer_gas(self):
        fees = [pay_producer(Block(index=0, capacity=10**6, fees_collected=f), 0.5) for f in range(0, 10_000, 97)]
        assert fees == sorted(fees)


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


class TestLedger:
    def test_ledger_exactness(self):
        records = [record(1, to_nano(6)), record(2, to_nano(2))]
        contribs = measure_contribution(records, [1, 2])
        ledger = build_ledger(0, to_nano(8), W442, contribs, producer_fees=123, slashed=0)
        assert sum(ledger.allocations.values()) == to_nano(8)
        assert sum(ledger.payouts.values()) == to_nano(8)
        assert sum(ledger.marketplace_allocations.values()) == ledger.allocations[GROUP_MARKETPLACES]
        assert sum(ledger.marketplace_payouts.values()) == ledger.payouts[GROUP_MARKETPLACES]

    def test_diverted_pool_lands_in_treasury(self):
        ledger = build_ledger(
            0, 1000, W442, [MarketplaceContribution(1, 0)], producer_fees=0, slashed=0
        )
        assert ledger.diverted_to_treasury
        assert ledger.allocations[GROUP_MARKETPLACES] == 0
        assert ledger.payouts[GROUP_TREASURY] == 600
        assert sum(ledger.payouts.values()) == 1000


def test_epoch_rows_agree_with_their_block_rows():
    """Each epoch row is derived from that epoch's blocks alone. chaos.yaml
    in autobalancer mode forces reverts and slashes a dishonest producer,
    so every summed quantity is non-trivial somewhere."""
    config = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "chaos.yaml")
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
        assert ledger.producer_fees == sum(b.producer_fee for b in blocks)
        assert ledger.slashed == sum(b.slashed for b in blocks)
        assert row["constraint"]["mean_psi"] == ordered_sum(r["psi"] for r in block_rows) / length
