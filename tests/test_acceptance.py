"""Acceptance criteria. One printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines inline.
Each criterion pins its tolerance here; nothing is deferred to later
calibration.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from chainbalancer import (
    Funding,
    Threshold,
    deviation_bounds,
    optimal_trade_size,
    run_baseline_comparison,
    run_scenario,
    spot_price,
)
from chainbalancer.chain import execute_block_balancer_phase
from chainbalancer.config import from_dict
from chainbalancer.market import NUMERAIRE
from chainbalancer.report import dumps_report
from chainbalancer.rewards import GROUP_MARKETPLACES, apply_slashing
from chainbalancer.runner import SimulationRun
from chainbalancer.searchers import (
    GovernanceConditions,
    SearcherProfile,
    build_proposal,
)
from chainbalancer.state import TREASURY
from chainbalancer.units import ppb

from conftest import make_pool, make_state
from test_arbitrage import grid_search_oracle, oracle_profit_at
from test_rewards import independent_inversion_check


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def closure_scenario(**over):
    """3 venues + deeper reference, epsilon 0.003, fees 0.003, 200 blocks."""
    raw = {
        "assets": {"count": 3},
        "pools": [
            {"venue": 0, "asset": 1, "reserve_asset": 30000.0, "reserve_numeraire": 30000.0, "fee": 0.003, "reference": True},
            {"venue": 0, "asset": 2, "reserve_asset": 20000.0, "reserve_numeraire": 50000.0, "fee": 0.003, "reference": True},
            {"venue": 1, "asset": 1, "reserve_asset": 3000.0, "reserve_numeraire": 3030.0, "fee": 0.003},
            {"venue": 1, "asset": 2, "reserve_asset": 2000.0, "reserve_numeraire": 5050.0, "fee": 0.003},
            {"venue": 2, "asset": 1, "reserve_asset": 3000.0, "reserve_numeraire": 2960.0, "fee": 0.003},
            {"venue": 2, "asset": 2, "reserve_asset": 2500.0, "reserve_numeraire": 6200.0, "fee": 0.003},
            {"venue": 3, "asset": 1, "reserve_asset": 2500.0, "reserve_numeraire": 2500.0, "fee": 0.003},
            {"venue": 3, "asset": 2, "reserve_asset": 2500.0, "reserve_numeraire": 6250.0, "fee": 0.003},
        ],
        "blocks": {"epochs": 10, "epoch_length": 20},
        "user_flow": {"rate": 5.0, "size_mu": 2.8, "size_sigma": 0.8},
        "threshold": {"epsilon": 0.003, "flash_fee": 0.0009, "gas_price": 1e-7},
        "searchers": {"window": 4},
        "seeds": [42],
    }
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return from_dict(raw)


@pytest.fixture(scope="module")
def closure_run():
    config = closure_scenario()
    t0 = time.perf_counter()
    result = run_scenario(config, seed=42, mode="autobalancer")
    elapsed = time.perf_counter() - t0
    return config, result, elapsed


class TestCriterion1DeviationClosure:
    def test_committed_executions_land_inside_band(self, closure_run):
        config, result, elapsed = closure_run
        thr = config.threshold
        commits = 0
        worst = 0.0
        violations = 0
        for block in result.blocks:
            for record in block.balancer_executed:
                commits += 1
                flash = thr.flash_fee if record.funding is Funding.FLASH_LOAN else 0.0
                lo, hi = deviation_bounds(0.003, 0.003, flash)
                after = record.delta_p_after
                bound = max(thr.epsilon, hi if after >= 0 else -lo)
                if abs(after) > bound + 1e-9:
                    violations += 1
                worst = max(worst, abs(after) - bound)
        ok = commits > 50 and violations == 0 and elapsed < 10.0
        _report(
            "criterion 1 deviation closure",
            ok,
            f"{commits} commits, 0 tolerance violations expected (got {violations}), "
            f"worst overshoot {worst:.3e} <= 1e-9, runtime {elapsed:.2f}s < 10s",
        )


class TestCriterion2SizingOracle:
    def test_thousand_randomized_pool_pairs(self):
        rng = random.Random(2024)
        t0 = time.perf_counter()
        worst_rel = 0.0
        zero_agreements = 0
        checked = 0
        for _ in range(1000):
            r = [10 ** rng.uniform(3, 7) for _ in range(4)]
            f_c, f_d = (rng.choice([0.0, 0.003, 0.01]) for _ in range(2))
            flash = rng.choice([0.0, 0.0009])
            a = make_pool(0, reserve_asset=r[0], reserve_numeraire=r[1], fee=f_c)
            b = make_pool(1, reserve_asset=r[2], reserve_numeraire=r[3], fee=f_d)
            cheap, dear = (a, b) if spot_price(a) < spot_price(b) else (b, a)
            size = optimal_trade_size(cheap, dear, ppb(flash))
            _, oracle_best = grid_search_oracle(cheap, dear, flash)
            if oracle_best <= 0.0:
                assert size == 0
                zero_agreements += 1
                continue
            # the oracle's own float curve at the returned size
            profit = oracle_profit_at(cheap, dear, flash, size)
            rel = abs(profit - oracle_best) / oracle_best
            worst_rel = max(worst_rel, rel)
            checked += 1
        elapsed = time.perf_counter() - t0
        ok = worst_rel <= 1e-5 and elapsed < 30.0 and checked > 300
        _report(
            "criterion 2 sizing oracle equivalence",
            ok,
            f"{checked} profitable + {zero_agreements} no-trade pairs, "
            f"worst relative error {worst_rel:.2e} <= 1e-5, runtime {elapsed:.1f}s < 30s",
        )


class TreasuryTap(SimulationRun):
    """A run that copies the treasury at the close of every block."""

    def execute(self):
        self.per_block_treasury = []
        return super().execute()

    def _sample_block(self, block):
        super()._sample_block(block)
        self.per_block_treasury.append(dict(self.state.accounts.get(TREASURY, {})))


class StrayNano(SimulationRun):
    """A run that credits one nano-unit from nowhere after block `k` and
    removes it again after block `k + 1`."""

    k = 5

    def _sample_block(self, block):
        super()._sample_block(block)
        if block.index == self.k:
            self.state.credit("stray", NUMERAIRE, 1)
        elif block.index == self.k + 1:
            self.state.debit("stray", NUMERAIRE, 1)


class TestCriterion3NoInventoryRisk:
    def test_treasury_monotone_and_reverts_exact(self):
        config = closure_scenario(
            blocks={"epochs": 10, "epoch_length": 20},
            chaos={"forced_revert_rate": 0.2},
        )
        run = TreasuryTap(config, seed=7, mode="autobalancer")
        result = run.execute()
        assert len(run.per_block_treasury) == len(result.blocks) == 200
        commits = sum(len(b.balancer_executed) for b in result.blocks)
        injected = sum(
            1
            for b in result.blocks
            for s in b.balancer_skipped
            if s.reason == "injected_fault"
        )
        assert commits > 0 and injected > 0, "injection scenario must exercise both paths"

        violations = 0
        epoch_len = config.epoch_length
        for i in range(1, len(run.per_block_treasury)):
            if i % epoch_len == 0:
                continue  # epoch boundary: reward payouts legitimately debit
            prev, cur = run.per_block_treasury[i - 1], run.per_block_treasury[i]
            for asset in set(prev) | set(cur):
                if cur.get(asset, 0) < prev.get(asset, 0):
                    violations += 1

        # all-revert twin: every attempt rolls back, so the chain must be
        # byte-identical to a run with no balancer phase at all
        all_revert = run_scenario(
            closure_scenario(chaos={"forced_revert_rate": 1.0}), seed=7, mode="autobalancer"
        )
        off = run_scenario(closure_scenario(), seed=7, mode="off")
        exact = (
            all_revert.final_state.accounts == off.final_state.accounts  # the treasury's too
            and all(
                (p.reserve_base, p.reserve_quote)
                == (off.final_state.pools[k].reserve_base, off.final_state.pools[k].reserve_quote)
                for k, p in all_revert.final_state.pools.items()
            )
            and sum(len(b.balancer_executed) for b in all_revert.blocks) == 0
        )
        ok = violations == 0 and exact
        _report(
            "criterion 3 no-inventory-risk",
            ok,
            f"{commits} commits / {injected} injected reverts at 20%: "
            f"{violations} treasury decreases (expected 0); all-revert twin "
            f"{'matches' if exact else 'DIVERGES from'} the off-mode chain exactly",
        )


class TestCriterion4Conservation:
    @pytest.mark.parametrize("mode", ["off", "autobalancer", "external"])
    def test_totals_constant_every_block(self, mode):
        config = closure_scenario(chaos={"forced_revert_rate": 0.1})
        result = run_scenario(config, seed=13, mode=mode)
        worst = result.totals["max_conservation_drift_nano"]
        ok = worst == 0
        _report(
            f"criterion 4 conservation [{mode}]",
            ok,
            f"max per-block drift {worst} nano-units (tolerance 1e-9 units = 1 nano), "
            f"{len(result.blocks)} blocks",
        )

    def test_drift_between_blocks_is_caught(self):
        """A nano that appears after one block and is gone after the next
        leaves the final totals exact; only a per-block check sees it."""
        config = closure_scenario(blocks={"epochs": 1, "epoch_length": 20})
        genesis = SimulationRun(config, seed=13, mode="autobalancer").state.asset_totals()
        result = StrayNano(config, seed=13, mode="autobalancer").execute()
        assert result.final_state.asset_totals() == genesis
        assert result.totals["max_conservation_drift_nano"] == 1


class TestCriterion5MechanismBenefit:
    def test_paired_seeds_and_capture(self):
        config = closure_scenario(blocks={"epochs": 6, "epoch_length": 20})
        seeds = list(range(100, 121))  # 21 seeds
        comparison = run_baseline_comparison(config, ["off", "autobalancer"], seeds)
        off_rows = comparison["per_mode"]["off"]["per_seed"]
        auto_rows = comparison["per_mode"]["autobalancer"]["per_seed"]

        lower = sum(
            1
            for off, auto in zip(off_rows, auto_rows)
            if auto["time_avg_discrepancy"] < off["time_avg_discrepancy"]
        )
        mean_off = comparison["per_mode"]["off"]["mean_time_avg_discrepancy"]
        mean_auto = comparison["per_mode"]["autobalancer"]["mean_time_avg_discrepancy"]

        # searchers prefer network liquidity here, so no flash fee in the band
        _, hi = deviation_bounds(0.003, 0.003, 0.0)
        capture_failures = [
            (off["seed"], off["max_abs_deviation"], auto["captured"])
            for off, auto in zip(off_rows, auto_rows)
            if off["max_abs_deviation"] > hi and not auto["captured"] > 0
        ]
        share = lower / len(seeds)
        ok = mean_auto < mean_off and share >= 0.9 and not capture_failures
        _report(
            "criterion 5 mechanism benefit",
            ok,
            f"mean discrepancy {mean_auto:.4f} (auto) < {mean_off:.4f} (off); "
            f"per-seed lower in {lower}/{len(seeds)} ({share:.0%} >= 90%); "
            f"capture failures {capture_failures or 'none'}",
        )


class TestCriterion6RewardExactness:
    def test_ledgers_exact_and_slashing_sound(self, closure_run):
        config, result, _ = closure_run
        ledgers = [l for l in result.ledgers if l is not None]
        assert ledgers, "run produced no ledgers"
        omega_l = config.reward_weights.marketplaces
        worst_prop = Fraction(0)
        length = config.epoch_length
        epochs = [result.blocks[i : i + length] for i in range(0, len(result.blocks), length)]
        assert len(epochs) == len(ledgers) == config.epochs
        for ledger, epoch_blocks in zip(ledgers, epochs):
            assert sum(ledger.allocations.values()) == ledger.profit_pool
            assert sum(ledger.payouts.values()) == ledger.profit_pool
            assert (
                sum(ledger.marketplace_payouts.values())
                == ledger.payouts[GROUP_MARKETPLACES]
            )
            # independent rho tally straight from the epoch's event records
            rho: dict[int, int] = {v: 0 for v in ledger.marketplace_allocations}
            for block in epoch_blocks:
                for record in block.balancer_executed:
                    rho[record.venue_id] += record.profit
            total_rho = sum(rho.values())
            assert total_rho == ledger.profit_pool
            # F_l * sum(rho) == omega_L * pool * rho_l must hold exactly
            for venue, share in ledger.marketplace_allocations.items():
                residual = abs(
                    share * total_rho - omega_l * ledger.profit_pool * rho[venue]
                )
                worst_prop = max(worst_prop, residual)

        rng = random.Random(4242)
        mismatches = 0
        fired = 0
        for _ in range(10_000):
            n = rng.randint(1, 9)
            prescribed = list(range(n))
            executed = rng.sample(prescribed, rng.randint(0, n))
            if rng.random() < 0.5:
                rng.shuffle(executed)
            else:
                executed.sort()
            slashed = apply_slashing(executed, prescribed, 100, 1000)
            expected = independent_inversion_check(executed, prescribed)
            if (slashed > 0) != expected:
                mismatches += 1
            fired += slashed > 0
        ok = mismatches == 0 and fired > 500 and worst_prop == 0
        _report(
            "criterion 6 reward exactness",
            ok,
            f"{len(ledgers)} epoch ledgers exact (proportionality residual {float(worst_prop):.1e} <= 1e-9); "
            f"slashing matched the independent inversion checker on 10000 permutations "
            f"({fired} fired, {mismatches} mismatches)",
        )


AUDIT_THRESHOLD = Threshold(
    epsilon=0.003, flash_fee=0.0009, gas_price=1e-7, allowed_funding=frozenset({Funding.FLASH_LOAN})
)


def _audit_state(rng):
    """One shared asset across n venues, so executions interact through
    the reference pool and ordering genuinely matters."""
    n = rng.randint(4, 10)
    pools = [
        make_pool(0, asset=1, reserve_asset=8000.0, reserve_numeraire=8000.0, fee=0.003)
    ]
    for venue in range(1, n + 1):
        gap = rng.uniform(-0.04, 0.04)
        depth = rng.uniform(1000.0, 4000.0)
        pools.append(
            make_pool(venue, asset=1, reserve_asset=depth, reserve_numeraire=depth * (1 + gap), fee=0.003)
        )
    return make_state(pools, threshold=AUDIT_THRESHOLD), n


class TestCriterion7OrderingAudit:
    def test_greedy_vs_exhaustive(self):
        rng = random.Random(777)
        conditions = GovernanceConditions(max_set_size=16)

        def plan_profit(state, templates, slots):
            sim = state.clone()
            phase = execute_block_balancer_phase(sim, templates, slots)
            return sum(r.profit for r in phase.executed)

        ratios = []
        single_failures = 0
        instances = 0
        t0 = time.perf_counter()
        while instances < 200:
            state, n = _audit_state(rng)
            slots = 3 if n <= 6 else 2
            proposal = build_proposal(
                SearcherProfile(0),
                state,
                conditions,
                random.Random(0),
            )
            if not proposal.ordered_txs or proposal.ordered_txs[0].estimate <= 0:
                continue  # no live opportunity; resample
            instances += 1
            templates = proposal.ordered_txs
            greedy = plan_profit(state, templates, slots)

            best_single = max(plan_profit(state, [t], 1) for t in templates)
            optimal = greedy
            for combo in itertools.permutations(templates, slots):
                optimal = max(optimal, plan_profit(state, list(combo), slots))

            # integer swap rounding can shave a few nano off equal-valued
            # plans; 10 nano = 1e-8 units of headroom
            if greedy + 10 < best_single:
                single_failures += 1
            if optimal > 0:
                ratios.append(greedy / optimal)
        elapsed = time.perf_counter() - t0
        ok = single_failures == 0 and len(ratios) == 200
        _report(
            "criterion 7 ordering audit",
            ok,
            f"200 instances (n<=10, exhaustive ordered subsets): greedy >= best single in "
            f"{200 - single_failures}/200; greedy/optimal mean {sum(ratios) / len(ratios):.4f}, "
            f"min {min(ratios):.4f}; {elapsed:.1f}s",
        )


class TestCriterion8Determinism:
    def test_reports_byte_identical(self):
        config = closure_scenario()
        a = dumps_report(run_scenario(config, seed=42, mode="autobalancer").report())
        b = dumps_report(run_scenario(config, seed=42, mode="autobalancer").report())
        ok = a == b
        _report(
            "criterion 8 determinism",
            ok,
            f"two runs of config+seed produced byte-identical {len(a)}-byte JSON reports",
        )


def scale_scenario():
    pools = []
    for a in range(1, 9):
        pools.append(
            {"venue": 0, "asset": a, "reserve_asset": 50000.0,
             "reserve_numeraire": 50000.0 * (0.9 + 0.05 * a), "fee": 0.003, "reference": True}
        )
    for v in range(1, 6):
        for a in range(1, 9):
            jitter = 1.0 + 0.004 * ((v + a) % 5 - 2)
            pools.append(
                {"venue": v, "asset": a, "reserve_asset": 5000.0,
                 "reserve_numeraire": 5000.0 * (0.9 + 0.05 * a) * jitter, "fee": 0.003}
            )
    return from_dict(
        {
            "assets": {"count": 9},
            "pools": pools,
            "blocks": {"epochs": 200, "epoch_length": 50},
            "user_flow": {"rate": 5.0, "size_mu": 2.6, "size_sigma": 0.7},
            "searchers": {"window": 4},
            "governance": {
                "allowed_funding": ["flash_loan"], "max_set_size": 24, "min_net_profit": 0.0
            },
            "seeds": [42],
        }
    )


class TestCriterion9Scale:
    def test_ten_thousand_blocks_under_a_minute(self):
        config = scale_scenario()
        t0 = time.perf_counter()
        result = run_scenario(config, seed=42, mode="autobalancer")
        elapsed = time.perf_counter() - t0
        commits = sum(len(b.balancer_executed) for b in result.blocks)
        ok = elapsed < 60.0 and len(result.blocks) == 10_000
        _report(
            "criterion 9 scale",
            ok,
            f"10000 blocks, 5 venues, 8 assets, 4 searchers in {elapsed:.1f}s < 60s "
            f"({commits} commits, conservation drift {result.totals['max_conservation_drift_nano']})",
        )
