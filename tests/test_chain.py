"""Block production: user flow, gas packing, phases."""

import hashlib
import math
import random
import statistics

import pytest

from chainbalancer import Funding, SwapDirection, Threshold, optimal_trade_size, spot_price
from chainbalancer.arbitrage import Opportunity, opportunity_from_deviation
from chainbalancer.chain import (
    SkipRecord,
    UserFlowParams,
    UserTx,
    decide,
    execute_block_balancer_phase,
    execute_block_user_phase,
    generate_user_flow,
)
from chainbalancer.config import ValidationError, from_dict
from chainbalancer.market import NUMERAIRE
from chainbalancer.runner import SimulationRun
from chainbalancer.searchers import (
    BalancerTemplate,
    GovernanceConditions,
    SearcherProfile,
    build_proposal,
)
from chainbalancer.state import FEE_BURN, FEE_ESCROW, PRODUCER, TREASURY, user_account
from chainbalancer.units import to_nano

from conftest import baseline_raw, make_pool, make_state


def rng_for(seed):
    return random.Random(seed)


FLOW_PARAMS = UserFlowParams(rate=5.0, size_mu=2.0, size_sigma=0.5, venue_weights={1: 1.0, 2: 3.0})
VENUE_ASSETS = {1: [1, 2], 2: [1]}
# sha256 of the 51 txs that rng_for(42) draws in 10 blocks of FLOW_PARAMS,
# each line also holding the 21,000 gas of one user swap
FLOW_DIGEST = "97d066b4f41f9b214411a93e1c5a304f7dbbe0b5e555905197dc42d3efab409f"
USER_GAS = 21_000
USER_ROOM = 1_000_000 // USER_GAS  # the user swaps 1,000,000 gas holds: 47


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
            f"{tx.id}|{tx.venue_id}|{tx.asset}|{tx.direction.value}|{tx.amount_in}|{USER_GAS}|{tx.submitter}\n"
            for txs in flow
            for tx in txs
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == FLOW_DIGEST


def _funded_state():
    pools = [
        make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003),
        make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5000, fee=0.003),
    ]
    state = make_state(pools, threshold=THRESHOLD)
    for u in range(4):
        state.credit(user_account(u), 0, to_nano(100_000))
        state.credit(user_account(u), 1, to_nano(100_000))
    return state


def _tx(tx_id, amount=10.0, venue=1, direction=SwapDirection.BASE_IN):
    return UserTx(
        id=tx_id,
        venue_id=venue,
        asset=1,
        direction=direction,
        amount_in=to_nano(amount),
        submitter=user_account(tx_id % 4),
    )


class TestUserPhase:
    def test_empty_list_is_identity(self):
        state = _funded_state()
        before = state.clone()
        result = execute_block_user_phase(state, [], USER_ROOM)
        assert (result.applied, result.carried, result.events) == ([], [], [])
        assert state.pools[(1, 1)].reserve_base == before.pools[(1, 1)].reserve_base
        assert state.accounts == before.accounts

    def test_full_capacity_utilization(self):
        state = _funded_state()
        txs = [_tx(i) for i in range(4)]
        room = 1_000_000 // 250_000  # four swaps of 250,000 gas fill the block exactly
        result = execute_block_user_phase(state, txs, room)
        assert [t.id for t in result.applied] == [0, 1, 2, 3]
        assert result.carried == []
        assert len(result.applied) == room

    def test_third_tx_exceeding_stops_the_scan(self):
        state = _funded_state()
        txs = [_tx(0), _tx(1), _tx(2)]
        result = execute_block_user_phase(state, txs, 1_000_000 // 400_000)
        assert [t.id for t in result.applied] == [0, 1]
        assert [t.id for t in result.carried] == [2]

    def test_insufficient_balance_defers_without_stopping(self):
        state = _funded_state()
        state.accounts[user_account(1)][1] = 0  # tx 1 cannot pay
        txs = [_tx(0), _tx(1), _tx(2)]
        result = execute_block_user_phase(state, txs, USER_ROOM)
        assert [t.id for t in result.applied] == [0, 2]
        assert [t.id for t in result.carried] == [1]
        assert [(tx.id, status) for tx, status in result.events] == [
            (0, "applied"),
            (1, "balance_deferred"),
            (2, "applied"),
        ]

    @pytest.mark.parametrize("direction", list(SwapDirection))
    def test_a_deferred_tx_writes_nothing(self, direction):
        state = _funded_state()
        pay_asset = 1 if direction is SwapDirection.BASE_IN else 0
        state.accounts[user_account(1)][pay_asset] = to_nano(10.0) - 1  # one nano short
        before = state.clone()
        result = execute_block_user_phase(state, [_tx(1, direction=direction)], USER_ROOM)
        assert [(tx.id, status) for tx, status in result.events] == [(1, "balance_deferred")]
        assert state == before

    def test_conservation_across_phase(self):
        state = _funded_state()
        before = state.asset_totals()
        execute_block_user_phase(state, [_tx(i) for i in range(8)], USER_ROOM)
        assert state.asset_totals() == before


def _template(asset=1, venue=1, estimate=0):
    return BalancerTemplate(asset=asset, venue_id=venue, estimate=estimate)


def _gapped_state(gap=0.02):
    pools = [
        make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003),
        make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5000 * (1 + gap), fee=0.003),
    ]
    return make_state(pools, threshold=THRESHOLD)


THRESHOLD = Threshold(
    epsilon=0.003, flash_fee=0.0009, gas_price=1e-7, allowed_funding=frozenset({Funding.FLASH_LOAN})
)
ROOM = 1_000_000 // THRESHOLD.gas_per_tx  # the balancer txs 1,000,000 gas holds: 11


class TestBalancerPhase:
    def test_zero_residual_no_executions(self):
        """Room 0: the walk attempts nothing, not even a skip."""
        state = _gapped_state()
        result = execute_block_balancer_phase(state, [_template()], 0)
        assert result.executed == [] and result.skipped == []

    def test_single_trigger_closes_into_band(self):
        """Recompute the post-trade deviation from raw reserves."""
        state = _gapped_state(gap=0.02)
        result = execute_block_balancer_phase(state, [_template()], ROOM)
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
            make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000),
            make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5100),
        ]
        state = make_state(pools, threshold=Threshold(epsilon=0.003, flash_fee=0.0, gas_price=1e-9))
        result = execute_block_balancer_phase(state, [_template(), _template()], ROOM)
        assert len(result.executed) == 1
        assert [s.reason for s in result.skipped] == ["below_epsilon"]

    def test_stops_when_residual_below_tx_gas(self):
        state = _gapped_state(gap=0.02)
        second_state_pool = make_pool(2, asset=1, reserve_asset=5000, reserve_numeraire=5100, fee=0.003)
        state.pools[(2, 1)] = second_state_pool
        templates = [_template(venue=1), _template(venue=2)]
        # only one 90k tx fits in 100k residual gas: room 1
        result = execute_block_balancer_phase(state, templates, 100_000 // 90_000)
        assert len(result.executed) == 1
        assert result.skipped == []  # the second template is never attempted

    def test_skips_take_no_room_and_the_kth_commit_ends_the_walk(self):
        state = _gapped_state(gap=0.02)
        state.pools[(2, 1)] = make_pool(2, reserve_asset=5000, reserve_numeraire=5100, fee=0.003)
        state.pools[(3, 1)] = make_pool(3, reserve_asset=5000, reserve_numeraire=5100, fee=0.003)
        state.pools[(4, 1)] = make_pool(4, reserve_asset=5000, reserve_numeraire=5000, fee=0.003)
        templates = [_template(venue=v) for v in (4, 1, 2, 3)]  # venue 4 has no gap
        result = execute_block_balancer_phase(state, templates, 2)
        assert [(s.venue_id, s.reason) for s in result.skipped] == [(4, "below_epsilon")]
        assert [r.venue_id for r in result.executed] == [1, 2]
        assert state.deviation(3, 1) > THRESHOLD.epsilon  # venue 3 was left untried

    def test_gas_accounting_exact(self):
        """Each commit escrows the one gas fee per tx; the beneficiary nets the profit."""
        state = _gapped_state(gap=0.02)
        escrow, treasury = state.balance(FEE_ESCROW, 0), state.balance(TREASURY, 0)
        result = execute_block_balancer_phase(state, [_template()], ROOM)
        assert len(result.executed) == 1
        assert state.balance(FEE_ESCROW, 0) - escrow == THRESHOLD.gas_fee_nano
        assert state.balance(TREASURY, 0) - treasury == result.executed[0].profit

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
            submitter=user_account(0),
        )
        state.credit(user_account(0), 1, to_nano(1000))
        user_result = execute_block_user_phase(state, [closer], USER_ROOM)
        assert [(tx.id, status) for tx, status in user_result.events] == [(0, "applied")]
        live = (spot_price(state.pools[(1, 1)]) - spot_price(state.pools[(0, 1)])) / spot_price(
            state.pools[(0, 1)]
        )
        assert abs(live) <= 0.005  # the gap is gone before the balancer runs

        phase = execute_block_balancer_phase(state, [_template()], ROOM)
        assert phase.executed == []
        assert len(phase.skipped) == 1
        assert phase.skipped[0].reason in ("below_epsilon", "unprofitable")
        assert state.accounts.get(TREASURY) == treasury_before


class TestDecisionSlots:
    """`decide` reuses a template's decision only while nothing it reads has moved."""

    def test_reassigning_the_threshold_refreshes_the_decision(self):
        state = _gapped_state(gap=0.03)
        sized = decide(state, 1, 1)
        assert isinstance(sized, Opportunity)
        state.threshold = THRESHOLD.replace(epsilon=0.05)  # the slot is warm
        skip = decide(state, 1, 1)
        assert (skip.reason, skip.kind) == ("below_epsilon", "skip")
        state.threshold = THRESHOLD
        assert decide(state, 1, 1) == sized

    @pytest.mark.parametrize("venue", [0, 1], ids=["reference_pool", "venue_pool"])
    def test_either_pool_alone_moving_refreshes_the_decision(self, venue):
        state = _funded_state()  # no gap: below epsilon
        assert decide(state, 1, 1).reason == "below_epsilon"
        # a user trades 1% of one pool's reserve, opening a gap of about 2%
        direction = SwapDirection.QUOTE_IN if venue == 0 else SwapDirection.BASE_IN
        amount = (500.0, 50.0)[venue]
        execute_block_user_phase(state, [_tx(0, amount, venue=venue, direction=direction)], 1)
        uncached = opportunity_from_deviation(state, 1, 1, state.deviation(1, 1))
        assert isinstance(uncached, Opportunity)
        assert decide(state, 1, 1) == uncached

    def test_beneficiary_numeraire_alone_flips_the_funding(self):
        state = _gapped_state(gap=0.02)
        state.threshold = THRESHOLD.replace(allowed_funding=frozenset(Funding))
        first = decide(state, 1, 1)
        assert first.funding is Funding.NETWORK_LIQUIDITY
        # leave the treasury one nano short of the size; no reserve moves
        short = state.balance(TREASURY, NUMERAIRE) - first.optimal_size + 1
        state.transfer(TREASURY, "sink", NUMERAIRE, short)
        uncached = opportunity_from_deviation(state, 1, 1, state.deviation(1, 1))
        second = decide(state, 1, 1)
        assert second == uncached
        assert second.funding is Funding.FLASH_LOAN

    def test_injected_fault_is_attempted_again_next_block(self):
        state = _gapped_state(gap=0.02)
        reserves = {key: (p.reserve_base, p.reserve_quote) for key, p in state.pools.items()}
        consulted = []

        def injector(fault):
            return lambda tpl: consulted.append(tpl) or fault

        first = execute_block_balancer_phase(state, [_template()], ROOM, injector(True))
        assert [(s.reason, s.kind) for s in first.skipped] == [("injected_fault", "revert")]
        assert {k: (p.reserve_base, p.reserve_quote) for k, p in state.pools.items()} == reserves
        second = execute_block_balancer_phase(state, [_template()], ROOM, injector(False))
        assert len(second.executed) == 1 and second.skipped == []
        assert len(consulted) == 2

    def test_a_reused_skip_is_the_same_record_across_clones(self):
        state = _gapped_state(gap=0.0)
        skip = decide(state, 1, 1)
        assert isinstance(skip, SkipRecord)
        replica = state.clone()
        assert replica.decisions is state.decisions
        assert decide(replica, 1, 1) is skip
        assert replica == state  # the slots take no part in equality

    @pytest.mark.parametrize(
        "gap,fields",
        [
            (0.0, ("asset", "venue_id", "reason", "kind")),
            (0.03, ("cheap", "dear", "optimal_size", "expected_profit", "funding")),
        ],
        ids=["skip", "opportunity"],
    )
    def test_a_shared_decision_cannot_be_changed(self, gap, fields):
        # one object serves its slot, every block's skipped list and every replay
        decision = decide(_gapped_state(gap=gap), 1, 1)
        assert isinstance(decision, SkipRecord if gap == 0.0 else Opportunity)
        for name in fields:
            value = getattr(decision, name)
            with pytest.raises(AttributeError):
                setattr(decision, name, value)
            assert getattr(decision, name) is value

    def test_each_run_starts_empty_and_keeps_one_slot_per_template(self, baseline_config):
        first = SimulationRun(baseline_config, seed=21, mode="autobalancer")
        second = SimulationRun(baseline_config, seed=21, mode="autobalancer")
        assert first.state.decisions == {} and first.state.decisions is not second.state.decisions
        result = first.execute()
        templates = {k for k in baseline_config.pools if k[0] != baseline_config.reference_venue_id}
        assert result.final_state.decisions  # the run decided on them
        assert set(result.final_state.decisions) <= templates


def _distinct_ids_state():
    """Asset 2 on venue 3 trades 2% below the reference; a decoy, asset 3 on
    venue 2 (the same ids swapped), 5% above it."""
    return make_state(
        [
            make_pool(0, asset=2, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003),
            make_pool(0, asset=3, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003),
            make_pool(3, asset=2, reserve_asset=5000, reserve_numeraire=4900, fee=0.003),
            make_pool(2, asset=3, reserve_asset=5000, reserve_numeraire=5250, fee=0.003),
        ],
        threshold=THRESHOLD,
    )


class TestDecide:
    def test_below_threshold_ignored(self):
        pools = [make_pool(0, reserve_numeraire=1000.0), make_pool(1, reserve_numeraire=1004.0)]
        thr = Threshold(epsilon=0.005, flash_fee=0.0, gas_price=0.0)
        decision = decide(make_state(pools, threshold=thr), 1, 1)
        assert (decision.reason, decision.kind) == ("below_epsilon", "skip")
        # the same gap clears a tighter trigger
        tighter = make_state(pools, threshold=thr.replace(epsilon=0.003))
        assert isinstance(decide(tighter, 1, 1), Opportunity)

    def test_sizes_the_venue_pool_of_the_asset(self):
        state = _distinct_ids_state()
        opp = decide(state, 2, 3)
        assert (opp.cheap, opp.dear) == ((3, 2), (0, 2))
        assert opp.optimal_size == optimal_trade_size(
            state.pools[(3, 2)], state.pools[(0, 2)], THRESHOLD.flash_fee_ppb
        )
        # the slot is keyed on that pool too: moving it alone refreshes the decision
        state.pools[(3, 2)].reserve_quote += to_nano(10)
        assert decide(state, 2, 3).optimal_size == optimal_trade_size(
            state.pools[(3, 2)], state.pools[(0, 2)], THRESHOLD.flash_fee_ppb
        ) != opp.optimal_size

    def test_the_phase_trades_the_venue_pool_of_the_asset(self):
        state = _distinct_ids_state()
        untouched = {k: (p.reserve_base, p.reserve_quote) for k, p in state.pools.items()}
        phase = execute_block_balancer_phase(state, [_template(asset=2, venue=3)], ROOM)
        [record] = phase.executed
        assert (record.asset, record.venue_id) == (2, 3)
        assert record.delta_p_after == state.deviation(3, 2)
        moved = {k for k, p in state.pools.items() if (p.reserve_base, p.reserve_quote) != untouched[k]}
        assert moved == {(3, 2), (0, 2)}

    def test_proposals_estimate_the_venue_pool_of_the_asset(self):
        state = _distinct_ids_state()
        expected = decide(_distinct_ids_state(), 2, 3).expected_profit
        decoy = decide(_distinct_ids_state(), 3, 2).expected_profit
        assert expected != decoy
        proposal = build_proposal(SearcherProfile(0), state, GovernanceConditions(), rng_for(0))
        estimates = {(t.asset, t.venue_id): t.estimate for t in proposal.ordered_txs}
        assert estimates == {(2, 3): expected, (3, 2): decoy}


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

    @pytest.mark.parametrize("mode", ["off", "autobalancer", "external"])
    def test_each_block_empties_the_fee_escrow_into_producer_and_burn(self, mode, monkeypatch):
        """The escrow holds exactly the block's commits times the gas fee; the
        block step pays all of it out (slashing then moves some of the
        producer's share to the treasury)."""
        config = from_dict(
            baseline_raw(
                blocks={"epochs": 3, "epoch_length": 10},
                producer={"dishonesty_rate": 0.3},
                chaos={"forced_revert_rate": 0.2},
            )
        )
        original = SimulationRun._step_block
        paid = []

        def checked(run, arrivals, active_set):
            state = run.state
            assert state.balance(FEE_ESCROW, NUMERAIRE) == 0
            before = state.balance(PRODUCER, NUMERAIRE) + state.balance(FEE_BURN, NUMERAIRE)
            block = original(run, arrivals, active_set)
            after = state.balance(PRODUCER, NUMERAIRE) + state.balance(FEE_BURN, NUMERAIRE)
            assert state.balance(FEE_ESCROW, NUMERAIRE) == 0
            fees = len(block.balancer_executed) * config.threshold.gas_fee_nano
            assert after + block.slashed - before == fees
            paid.append((fees, block.slashed))
            return block

        monkeypatch.setattr(SimulationRun, "_step_block", checked)
        SimulationRun(config, seed=5, mode=mode).execute()
        assert len(paid) == 30
        if mode != "off":
            assert all(any(values) for values in zip(*paid))  # fees paid and a slash taken

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
