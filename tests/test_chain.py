"""Block production: user flow, gas packing, phases, utilization."""

import hashlib
import math
import random
import statistics

import pytest

from chainbalancer import Funding, SwapDirection, Threshold, spot_price
from chainbalancer.chain import (
    Block,
    UserFlowParams,
    UserTx,
    execute_block_balancer_phase,
    execute_block_user_phase,
    generate_user_flow,
    performance_cost_psi,
    utilization,
)
from chainbalancer.config import ValidationError, from_dict
from chainbalancer.searchers import BalancerTemplate
from chainbalancer.state import FEE_ESCROW, TREASURY, user_account
from chainbalancer.units import to_nano

from conftest import baseline_raw, make_pool, make_state


def rng_for(seed):
    return random.Random(seed)


FLOW_PARAMS = UserFlowParams(rate=5.0, size_mu=2.0, size_sigma=0.5, venue_weights={1: 1.0, 2: 3.0})
VENUE_ASSETS = {1: [1, 2], 2: [1]}
# sha256 of the 51 txs that rng_for(42) draws in 10 blocks of FLOW_PARAMS
FLOW_DIGEST = "97d066b4f41f9b214411a93e1c5a304f7dbbe0b5e555905197dc42d3efab409f"


class TestGenerateUserFlow:
    def test_seed_determinism(self):
        a = generate_user_flow(rng_for(42), FLOW_PARAMS, 10, VENUE_ASSETS)
        b = generate_user_flow(rng_for(42), FLOW_PARAMS, 10, VENUE_ASSETS)
        assert a == b

    def test_zero_rate(self):
        params = UserFlowParams(rate=0.0, venue_weights={})
        assert generate_user_flow(rng_for(1), params, 5, VENUE_ASSETS) == [[]] * 5

    def test_mean_arrivals_across_seeds(self):
        """Monte Carlo over 1000 seeds: mean per-block count within 5%."""
        total = 0
        blocks = 0
        for seed in range(1000):
            flow = generate_user_flow(rng_for(seed), FLOW_PARAMS, 10, VENUE_ASSETS)
            total += sum(len(txs) for txs in flow)
            blocks += len(flow)
        mean = total / blocks
        assert mean == pytest.approx(5.0, rel=0.05)

    def test_venue_weights_respected(self):
        flow = generate_user_flow(rng_for(3), FLOW_PARAMS, 400, VENUE_ASSETS)
        picks = [tx.venue_id for txs in flow for tx in txs]
        share_2 = sum(1 for v in picks if v == 2) / len(picks)
        assert share_2 == pytest.approx(0.75, abs=0.05)

    def test_invalid_params_rejected(self):
        """The scenario loader is where user-flow parameters are checked."""
        cases = [
            ({"rate": -1, "venue_weights": {1: 1.0}}, "user_flow.rate:"),
            ({"size_sigma": -0.1}, "user_flow.size_sigma:"),
            ({"num_users": 0}, "user_flow.num_users:"),
            ({"rate": 1.0, "venue_weights": {}}, "user_flow.venue_weights: must weigh a venue"),
            ({"rate": 1.0, "venue_weights": {1: -2.0}}, "user_flow.venue_weights[1]:"),
            ({"rate": 1.0, "venue_weights": {1: 0.0}}, "user_flow.venue_weights: must weigh a venue"),
        ]
        for user_flow, path in cases:
            with pytest.raises(ValidationError) as caught:
                from_dict(baseline_raw(user_flow=user_flow))
            assert [v for v in caught.value.violations if v.startswith(path)], user_flow

    def test_draws_follow_their_distributions(self):
        """Each draw within 4 standard errors of its distribution's moments."""
        params = UserFlowParams(
            rate=5.0, size_mu=2.0, size_sigma=0.5, venue_weights={1: 1.0, 2: 3.0, 3: 0.0}
        )
        blocks = 20_000
        flow = generate_user_flow(rng_for(2026), params, blocks, {1: [1, 2], 2: [1], 3: [1]})
        counts = [len(txs) for txs in flow]
        rate = params.rate
        assert abs(statistics.fmean(counts) - rate) < 4 * math.sqrt(rate / blocks)
        # a Poisson count's sample variance has variance (rate + 2 rate^2) / n
        assert abs(statistics.variance(counts) - rate) < 4 * math.sqrt((rate + 2 * rate**2) / blocks)

        txs = [tx for block in flow for tx in block]
        n = len(txs)
        log_sizes = [math.log(tx.amount_in / 1e9) for tx in txs]
        mu, sigma = params.size_mu, params.size_sigma
        assert abs(statistics.fmean(log_sizes) - mu) < 4 * sigma / math.sqrt(n)
        assert abs(statistics.stdev(log_sizes) - sigma) < 4 * sigma / math.sqrt(2 * n)

        def within(count, total, p):
            return abs(count / total - p) < 4 * math.sqrt(p * (1 - p) / total)

        venues = [tx.venue_id for tx in txs]
        assert within(venues.count(2), n, 0.75)
        assert 3 not in venues
        venue_1 = [tx.asset for tx in txs if tx.venue_id == 1]
        assert within(venue_1.count(1), len(venue_1), 0.5)
        assert within(sum(tx.direction is SwapDirection.BASE_IN for tx in txs), n, 0.5)
        submitters = [tx.submitter for tx in txs]
        assert within(submitters.count(user_account(0)), n, 1 / params.num_users)
        assert set(submitters) == {user_account(i) for i in range(params.num_users)}

    def test_flow_digest_pinned(self):
        """The draw order and arithmetic, pinned apart from the run goldens."""
        flow = generate_user_flow(rng_for(42), FLOW_PARAMS, 10, VENUE_ASSETS)
        lines = "".join(
            f"{tx.id}|{tx.venue_id}|{tx.asset}|{tx.direction.value}|{tx.amount_in}|{tx.gas}|{tx.submitter}\n"
            for txs in flow
            for tx in txs
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == FLOW_DIGEST


def _funded_state():
    pools = [
        make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003, is_reference=True),
        make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5000, fee=0.003),
    ]
    state = make_state(pools)
    for u in range(4):
        state.credit(user_account(u), 0, to_nano(100_000))
        state.credit(user_account(u), 1, to_nano(100_000))
    return state


def _tx(tx_id, amount=10.0, gas=21_000, venue=1, direction=SwapDirection.BASE_IN):
    return UserTx(
        id=tx_id,
        venue_id=venue,
        asset=1,
        direction=direction,
        amount_in=to_nano(amount),
        gas=gas,
        submitter=user_account(tx_id % 4),
    )


class TestUserPhase:
    def test_empty_list_is_identity(self):
        state = _funded_state()
        before = state.clone()
        result = execute_block_user_phase(state, [], 1_000_000)
        assert result.gas_used == 0
        assert state.pools[(1, 1)].reserve_base == before.pools[(1, 1)].reserve_base
        assert state.accounts == before.accounts

    def test_full_capacity_utilization(self):
        state = _funded_state()
        txs = [_tx(i, gas=250_000) for i in range(4)]
        result = execute_block_user_phase(state, txs, 1_000_000)
        assert result.gas_used == 1_000_000
        block = Block(index=0, capacity=1_000_000, user_gas=result.gas_used)
        assert utilization(block) == 1.0

    def test_third_tx_exceeding_stops_the_scan(self):
        state = _funded_state()
        txs = [_tx(0, gas=400_000), _tx(1, gas=400_000), _tx(2, gas=400_000)]
        result = execute_block_user_phase(state, txs, 1_000_000)
        assert [t.id for t in result.applied] == [0, 1]
        assert [t.id for t in result.carried] == [2]

    def test_insufficient_balance_defers_without_stopping(self):
        state = _funded_state()
        state.accounts[user_account(1)][1] = 0  # tx 1 cannot pay
        txs = [_tx(0), _tx(1), _tx(2)]
        result = execute_block_user_phase(state, txs, 1_000_000)
        assert [t.id for t in result.applied] == [0, 2]
        assert [t.id for t in result.carried] == [1]
        assert [(tx.id, status) for tx, status in result.events] == [
            (0, "applied"),
            (1, "balance_deferred"),
            (2, "applied"),
        ]

    def test_conservation_across_phase(self):
        state = _funded_state()
        before = state.asset_totals()
        execute_block_user_phase(state, [_tx(i) for i in range(8)], 1_000_000)
        assert state.asset_totals() == before


class TestUtilizationAndPsi:
    def test_utilization_values(self):
        assert utilization(Block(index=0, capacity=1_000_000, user_gas=750_000)) == 0.75
        assert utilization(Block(index=0, capacity=1_000_000)) == 0.0
        assert utilization(Block(index=0, capacity=1_000_000, user_gas=1_000_000)) == 1.0

    def test_psi_ramp(self):
        below = Block(index=0, capacity=100, user_gas=50)
        saturated = Block(index=0, capacity=100, user_gas=100)
        ramp = Block(index=0, capacity=100, user_gas=95)
        assert performance_cost_psi(below, u_star=0.9) == 0.0
        assert performance_cost_psi(saturated, u_star=0.9) == 1.0
        assert performance_cost_psi(ramp, u_star=0.9) == pytest.approx(0.5)


def _template(asset=1, venue=1, estimate=0):
    return BalancerTemplate(asset=asset, venue_id=venue, estimate=estimate)


def _gapped_state(gap=0.02):
    pools = [
        make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003, is_reference=True),
        make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5000 * (1 + gap), fee=0.003),
    ]
    return make_state(pools)


THRESHOLD = Threshold(
    epsilon=0.003, flash_fee=0.0009, gas_price=1e-7, allowed_funding=frozenset({Funding.FLASH_LOAN})
)


class TestBalancerPhase:
    def test_zero_residual_no_executions(self):
        state = _gapped_state()
        result = execute_block_balancer_phase(
            state, [_template()], 0, THRESHOLD, 0, TREASURY
        )
        assert result.executed == []

    def test_single_trigger_closes_into_band(self):
        """Recompute the post-trade deviation from raw reserves."""
        state = _gapped_state(gap=0.02)
        result = execute_block_balancer_phase(
            state, [_template()], 1_000_000, THRESHOLD, 0, TREASURY
        )
        assert len(result.executed) == 1
        p_v = spot_price(state.pools[(1, 1)])
        p_r = spot_price(state.pools[(0, 1)])
        delta = (p_v - p_r) / p_r
        from chainbalancer import deviation_bounds

        lo, hi = deviation_bounds(0.003, 0.003, THRESHOLD.flash_fee)
        assert lo - 1e-9 <= delta <= hi + 1e-9

    def test_second_candidate_on_closed_pool_skipped(self):
        # frictionless pools: the first execution pulls the gap to ~zero,
        # so the second candidate's re-validation finds nothing left
        pools = [
            make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, is_reference=True),
            make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5100),
        ]
        state = make_state(pools)
        threshold = Threshold(epsilon=0.003, flash_fee=0.0, gas_price=1e-9)
        result = execute_block_balancer_phase(
            state, [_template(), _template()], 1_000_000, threshold, 0, TREASURY
        )
        assert len(result.executed) == 1
        assert [s.reason for s in result.skipped] == ["below_epsilon"]

    def test_stops_when_residual_below_tx_gas(self):
        state = _gapped_state(gap=0.02)
        second_state_pool = make_pool(2, asset=1, reserve_asset=5000, reserve_numeraire=5100, fee=0.003)
        state.pools[(2, 1)] = second_state_pool
        templates = [_template(venue=1), _template(venue=2)]
        result = execute_block_balancer_phase(
            state, templates, 100_000, THRESHOLD, 0, TREASURY
        )
        # only one 90k tx fits in 100k residual
        assert len(result.executed) == 1

    def test_gas_accounting_exact(self):
        """Each commit escrows the one gas fee per tx; the beneficiary nets the profit."""
        state = _gapped_state(gap=0.02)
        escrow, treasury = state.balance(FEE_ESCROW, 0), state.balance(TREASURY, 0)
        result = execute_block_balancer_phase(
            state, [_template()], 1_000_000, THRESHOLD, 0, TREASURY
        )
        assert len(result.executed) == 1
        assert state.balance(FEE_ESCROW, 0) - escrow == THRESHOLD.gas_fee_nano
        assert state.balance(TREASURY, 0) - treasury == result.profit == result.executed[0].profit

    def test_user_tx_sandwich_revalidation(self):
        """A user swap inside the block closes the gap; the stale balancer
        candidate is skipped at execution time and the treasury never moves.
        Verified by replaying the event records and diffing treasury."""
        state = _gapped_state(gap=0.02)  # venue trades 2% above reference
        treasury_before = dict(state.accounts.get(TREASURY))
        closer = UserTx(
            id=0,
            venue_id=1,
            asset=1,
            direction=SwapDirection.BASE_IN,  # selling pushes the venue price down
            amount_in=to_nano(51),
            gas=21_000,
            submitter=user_account(0),
        )
        state.credit(user_account(0), 1, to_nano(1000))
        user_result = execute_block_user_phase(state, [closer], 1_000_000)
        assert [(tx.id, status) for tx, status in user_result.events] == [(0, "applied")]
        live = (spot_price(state.pools[(1, 1)]) - spot_price(state.pools[(0, 1)])) / spot_price(
            state.pools[(0, 1)]
        )
        assert abs(live) <= 0.005  # the gap is gone before the balancer runs

        phase = execute_block_balancer_phase(
            state, [_template()], 1_000_000, THRESHOLD, 0, TREASURY
        )
        assert phase.executed == []
        assert len(phase.skipped) == 1
        assert phase.skipped[0].reason in ("below_epsilon", "unprofitable")
        assert state.accounts.get(TREASURY) == treasury_before


class TestRunLevelInvariants:
    def test_phase_ordering(self, baseline_config, monkeypatch):
        """Each block runs its user phase once, then at most one balancer phase."""
        from chainbalancer import run_scenario, runner

        calls: dict[int, list[str]] = {}
        committed: list[int] = []

        def record(kind, phase):
            def wrapped(state, *args, **kwargs):
                calls.setdefault(state.block_height, []).append(kind)
                out = phase(state, *args, **kwargs)
                if kind == "balancer":
                    committed.append(len(out.executed))
                return out

            return wrapped

        monkeypatch.setattr(
            runner, "execute_block_user_phase", record("user", runner.execute_block_user_phase)
        )
        monkeypatch.setattr(
            runner,
            "execute_block_balancer_phase",
            record("balancer", runner.execute_block_balancer_phase),
        )
        result = run_scenario(baseline_config, seed=21, mode="autobalancer")
        assert sorted(calls) == [block.index for block in result.blocks]
        for kinds in calls.values():
            assert kinds in (["user"], ["user", "balancer"])
        assert any(committed)

    def test_block_gas_accounting(self, baseline_config):
        from chainbalancer import run_scenario

        result = run_scenario(baseline_config, seed=21, mode="autobalancer")
        for block in result.blocks:
            recorded = sum(tx.gas for tx in block.user_txs) + len(
                block.balancer_executed
            ) * baseline_config.threshold.gas_per_tx
            assert block.work == recorded
            assert block.work <= block.capacity

    def test_final_state_determinism(self, baseline_config):
        from chainbalancer import run_scenario

        a = run_scenario(baseline_config, seed=33, mode="autobalancer")
        b = run_scenario(baseline_config, seed=33, mode="autobalancer")
        assert a.final_state.accounts == b.final_state.accounts  # the treasury's too
        assert all(
            (p.reserve_base, p.reserve_quote)
            == (b.final_state.pools[k].reserve_base, b.final_state.pools[k].reserve_quote)
            for k, p in a.final_state.pools.items()
        )
