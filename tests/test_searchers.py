"""Proposal building, governance selection, credibility dynamics."""

import math
import random
from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import chainbalancer.searchers as searchers_mod
from chainbalancer import Funding, Threshold, execute_atomic, run_scenario
from chainbalancer.arbitrage import opportunity_from_deviation
from chainbalancer.chain import standard_normal
from chainbalancer.config import from_dict
from chainbalancer.searchers import (
    BalancerTemplate,
    GovernanceConditions,
    SearcherProfile,
    SearcherProposal,
    build_proposal,
    evaluate_proposals,
    update_credibility,
)

from conftest import make_pool, make_state


def rng_for(seed):
    return random.Random(seed)


THRESHOLD = Threshold(epsilon=0.003, flash_fee=0.0009, gas_price=1e-7)
ROOM = 1_000_000 // THRESHOLD.gas_per_tx  # the balancer txs 1,000,000 gas holds: 11
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def three_gap_state(threshold=THRESHOLD):
    """Three venues with distinct profitable gaps against the reference."""
    pools = [
        make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003),
        make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5000 * 1.010, fee=0.003),
        make_pool(2, asset=1, reserve_asset=5000, reserve_numeraire=5000 * 1.030, fee=0.003),
        make_pool(3, asset=1, reserve_asset=5000, reserve_numeraire=5000 * 1.018, fee=0.003),
    ]
    return make_state(pools, threshold=threshold)


def conditions(max_set=16, min_net_profit=0):
    return GovernanceConditions(max_set_size=max_set, min_net_profit=min_net_profit)


class TestBuildProposal:
    def test_descending_net_profit_order(self):
        state = three_gap_state()
        proposal = build_proposal(
            SearcherProfile(0),
            state,
            conditions(),
            rng_for(0),
        )
        estimates = [t.estimate for t in proposal.ordered_txs]
        assert estimates == sorted(estimates, reverse=True)
        # the widest gap ranks first, the narrowest last
        venues = [t.venue_id for t in proposal.ordered_txs if t.estimate > 0]
        assert venues == [2, 3, 1]

    def test_tie_break_by_asset_then_venue(self):
        # equal gaps on every (asset, venue) pair, so every estimate ties
        pools = []
        for asset in (1, 2):
            pools.append(
                make_pool(0, asset=asset, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003)
            )
            for venue in (10001, 1):
                pools.append(
                    make_pool(venue, asset=asset, reserve_asset=5000, reserve_numeraire=5000 * 1.030, fee=0.003)
                )
        proposal = build_proposal(
            SearcherProfile(0),
            make_state(pools, threshold=THRESHOLD),
            conditions(),
            rng_for(0),
        )
        assert len({t.estimate for t in proposal.ordered_txs}) == 1
        keys = [(t.asset, t.venue_id) for t in proposal.ordered_txs]
        assert keys == [(1, 1), (1, 10001), (2, 1), (2, 10001)]

    def test_zero_noise_is_deterministic(self):
        state = three_gap_state()
        args = (state, conditions())
        a = build_proposal(SearcherProfile(0), *args, rng_for(7))
        b = build_proposal(SearcherProfile(0), *args, rng_for(7))
        assert a == b

    def test_profit_estimate_is_sequential_not_naive(self):
        """Re-simulate the ordered set independently and compare exactly."""
        state = three_gap_state()
        proposal = build_proposal(
            SearcherProfile(0),
            state,
            conditions(),
            rng_for(0),
        )
        sim = state.clone()
        total = 0
        for tpl in proposal.ordered_txs:
            delta = sim.deviation(tpl.venue_id, tpl.asset)
            if abs(delta) <= THRESHOLD.epsilon:
                continue
            opp = opportunity_from_deviation(sim, tpl.asset, tpl.venue_id, delta)
            if opp is None:
                continue
            result = execute_atomic(sim, opp)
            if result.committed:
                total += result.profit
        assert proposal.profit_estimate == total
        naive_sum = sum(t.estimate for t in proposal.ordered_txs)
        assert proposal.profit_estimate != naive_sum  # interactions matter

    def test_no_profitable_candidates_yields_empty_valid_proposal(self):
        pools = [
            make_pool(0, asset=1, reserve_asset=50_000, reserve_numeraire=50_000, fee=0.003),
            make_pool(1, asset=1, reserve_asset=5000, reserve_numeraire=5000, fee=0.003),
        ]
        state = make_state(pools, threshold=THRESHOLD)
        proposal = build_proposal(SearcherProfile(0), state, conditions(min_net_profit=1), rng_for(0))
        assert proposal.ordered_txs == []
        assert proposal.profit_estimate == 0

    def test_coverage_shrinks_candidates(self):
        state = three_gap_state()
        full = build_proposal(SearcherProfile(0, coverage=1.0), state, conditions(), rng_for(5))
        partial = build_proposal(SearcherProfile(1, coverage=0.34), state, conditions(), rng_for(5))
        assert len(partial.ordered_txs) < len(full.ordered_txs)

    def test_largest_noise_draw_keeps_estimates_finite(self):
        """At the largest noise the config accepts, Box-Muller's largest z
        (1 - u = 2**-53, cos 0 = 1) still leaves exp(noise) a finite float."""
        extreme = [0.0, 1.0 - 2**-53, 0.0]  # per candidate: coverage, then z's two uniforms
        z = standard_normal(iter(extreme[1:]).__next__)
        assert z == pytest.approx(math.sqrt(106 * math.log(2)))  # 8.57

        noisy = build_proposal(
            SearcherProfile(0, noise=10.0), three_gap_state(), conditions(),
            SimpleNamespace(random=cycle(extreme).__next__),
        )
        exact = build_proposal(SearcherProfile(0), three_gap_state(), conditions(), rng_for(0))
        assert len(exact.ordered_txs) == 3
        assert [t.estimate for t in noisy.ordered_txs] == [
            round(t.estimate * math.exp(10.0 * z)) for t in exact.ordered_txs
        ]


def proposal_of(searcher_id, templates):
    return SearcherProposal(
        searcher_id=searcher_id,
        ordered_txs=templates,
        profit_estimate=sum(t.estimate for t in templates),
    )


class TestEvaluateProposals:
    def _proposals(self):
        state = three_gap_state()
        p0 = build_proposal(SearcherProfile(0), state, conditions(), rng_for(0))
        # searcher 1 only sees venue 1 (the weakest gap)
        t1 = BalancerTemplate(asset=1, venue_id=1, estimate=1)
        p1 = proposal_of(1, [t1])
        return state, p0, p1

    def test_higher_replayed_profit_wins_on_equal_credibility(self):
        state, p0, p1 = self._proposals()
        cred = {0: 1.0, 1: 1.0}
        selected, scores = evaluate_proposals([p0, p1], [(state, ROOM)], cred)
        assert selected.searcher_id == 0
        assert scores[0]["score"] > scores[1]["score"]

    def test_credibility_weighting_flips_selection(self):
        state, p0, p1 = self._proposals()
        s0 = evaluate_proposals([p0, p1], [(state, ROOM)], {0: 1.0, 1: 1.0})[1]
        # weight searcher 0 down until its score drops below searcher 1's
        ratio = s0[1]["simulated_net_profit"] / s0[0]["simulated_net_profit"]
        low = ratio * 0.5
        cred = {0: low, 1: 1.0}
        selected, scores = evaluate_proposals([p0, p1], [(state, ROOM)], cred)
        assert selected.searcher_id == 1
        assert scores[0]["score"] < scores[1]["score"]

    def test_no_proposals_is_an_error(self):
        state = three_gap_state()
        with pytest.raises(ValueError, match="requires at least one proposal"):
            evaluate_proposals([], [(state, ROOM)], {})

    def test_single_proposal_selected_regardless(self):
        state, p0, _ = self._proposals()
        cred = {0: 0.0}
        selected, _ = evaluate_proposals([p0], [(state, ROOM)], cred)
        assert selected is p0

    def test_all_empty_proposals_select_nothing(self):
        state = three_gap_state()
        cred = {0: 1.0, 1: 1.0}
        selected, _ = evaluate_proposals(
            [proposal_of(0, []), proposal_of(1, [])],
            [(state, ROOM)],
            cred,
        )
        assert selected is None

    def test_scale_invariance_of_argmax(self):
        """Scaling every pool (hence every replayed profit) by a constant
        leaves the selection unchanged; gas is zeroed so profits scale
        exactly."""
        thr = Threshold(epsilon=0.003, flash_fee=0.0009, gas_price=0.0)
        state, p0, p1 = self._proposals()

        def scaled(factor):
            s = state.clone()
            s.threshold = thr
            for pool in s.pools.values():
                pool.reserve_base *= factor
                pool.reserve_quote *= factor
            return s

        cred = {0: 0.9, 1: 1.0}
        base_sel, base_scores = evaluate_proposals(
            [p0, p1], [(scaled(1), 10**9 // thr.gas_per_tx)], cred
        )
        big_sel, big_scores = evaluate_proposals(
            [p0, p1], [(scaled(10), 10**9 // thr.gas_per_tx)], cred
        )
        assert base_sel.searcher_id == big_sel.searcher_id
        assert big_scores[0]["simulated_net_profit"] == pytest.approx(
            10 * base_scores[0]["simulated_net_profit"], rel=1e-6
        )

    def test_proposals_with_one_order_share_its_replay(self, monkeypatch):
        """The estimates do not enter the replay, so one order replays once per state."""
        state = three_gap_state()
        order = [(1, 2), (1, 3)]
        p0 = proposal_of(0, [BalancerTemplate(a, v, estimate=5) for a, v in order])
        p1 = proposal_of(1, [BalancerTemplate(a, v, estimate=900) for a, v in order])
        replays = [(state, ROOM), (state.clone(), 1)]
        calls = []
        original = searchers_mod._replay_once

        def counted(base_state, templates, room):
            calls.append(base_state)
            return original(base_state, templates, room)

        monkeypatch.setattr(searchers_mod, "_replay_once", counted)
        _, scores = evaluate_proposals([p0, p1], replays, {0: 1.0, 1: 1.0})
        assert len(calls) == len(replays)
        assert all(called is s for called, (s, _) in zip(calls, replays))
        assert scores[0] == scores[1]
        assert scores[0]["simulated_net_profit"] > 0

    def test_tie_breaks_to_lowest_searcher_id(self):
        state = three_gap_state()
        p_a = build_proposal(SearcherProfile(3), state, conditions(), rng_for(0))
        p_b = build_proposal(SearcherProfile(1), state, conditions(), rng_for(0))
        cred = {1: 0.7, 3: 0.7}
        selected, _ = evaluate_proposals([p_a, p_b], [(state, ROOM)], cred)
        assert selected.searcher_id == 1


class TestCredibility:
    def test_perfect_prediction_fixed_point(self):
        assert update_credibility(1.0, 100, 100) == 1.0

    def test_zero_realization_decays_by_beta(self):
        assert update_credibility(1.0, 100, 0, beta=0.8) == pytest.approx(0.8)

    def test_matching_ratio_is_fixed_point(self):
        assert update_credibility(0.5, 100, 50, beta=0.8) == pytest.approx(0.5)

    def test_zero_prediction_convention(self):
        assert update_credibility(0.5, 0, 10) == pytest.approx(0.6)
        assert update_credibility(0.5, 0, -1) == pytest.approx(0.4)

    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**12),
                st.integers(min_value=-(10**12), max_value=10**12),
            ),
            max_size=40,
        ),
        start=st.floats(min_value=0.0, max_value=1.0),
        beta=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_score_bounded_under_any_sequence(self, updates, start, beta):
        score = start
        for predicted, realized in updates:
            score = update_credibility(score, predicted, realized, beta)
            assert isinstance(score, float) and 0.0 <= score <= 1.0


def _template(asset=1, venue=1, estimate=0):
    return BalancerTemplate(asset=asset, venue_id=venue, estimate=estimate)


def check_feasibility(conditions: GovernanceConditions, ordered_txs) -> int:
    """The oracle: 1 iff the sequence fits the cap and clears the profit
    floor; empty sequences are vacuously feasible."""
    if len(ordered_txs) > conditions.max_set_size:
        return 0
    for tx in ordered_txs:
        if tx.estimate < conditions.min_net_profit:
            return 0
    return 1


class TestFeasibility:
    def test_empty_sequence_feasible(self):
        assert check_feasibility(conditions(), []) == 1

    def test_negative_profit_infeasible(self):
        assert check_feasibility(conditions(min_net_profit=0), [_template(estimate=-1)]) == 0

    def test_count_cap(self):
        txs = [_template(venue=1, asset=a) for a in range(1, 12)]
        assert check_feasibility(conditions(max_set=10), txs) == 0

    def test_funding_filter(self):
        """Funding is filtered where it is chosen: a kind the threshold does
        not allow is never used, even where it would be preferred."""
        state = three_gap_state()
        delta = state.deviation(1, 1)
        both = opportunity_from_deviation(state, 1, 1, delta)
        assert both.funding is Funding.NETWORK_LIQUIDITY  # the treasury covers it
        state.threshold = THRESHOLD.replace(allowed_funding=frozenset({Funding.FLASH_LOAN}))
        opp = opportunity_from_deviation(state, 1, 1, delta)
        assert opp.funding is Funding.FLASH_LOAN
        state.threshold = THRESHOLD.replace(allowed_funding=frozenset())
        assert opportunity_from_deviation(state, 1, 1, delta) is None

    def test_deterministic(self):
        txs = [_template(estimate=5)]
        assert check_feasibility(conditions(), txs) == check_feasibility(conditions(), txs)


FL, NL = Funding.FLASH_LOAN, Funding.NETWORK_LIQUIDITY

# (allowed funding, the kind every template's execution uses on the
# proposal's state, whose treasury covers every size; None means no funding
# is allowed and nothing earns)
FUNDING_CASES = [
    (frozenset({FL, NL}), NL),  # both allowed: network liquidity avoids the flash fee
    (frozenset({FL}), FL),
    (frozenset({NL}), NL),
    (frozenset(), None),
]


@pytest.mark.parametrize(
    "allowed,expected", FUNDING_CASES, ids=["both", "flash-loan", "network-liquidity", "empty"]
)
@pytest.mark.parametrize("min_net_profit", [0, 1, 10**18])
@pytest.mark.parametrize("max_set", [1, 2, 16])
@pytest.mark.parametrize("noise", [0.0, 0.5])
def test_every_proposal_passes_the_feasibility_oracle(
    allowed, expected, min_net_profit, max_set, noise
):
    """The candidate filter is the only place the conditions are applied;
    `check_feasibility` stays the independent oracle for its output."""
    cond = GovernanceConditions(max_set_size=max_set, min_net_profit=min_net_profit)
    state = three_gap_state(THRESHOLD.replace(allowed_funding=allowed))
    proposal = build_proposal(SearcherProfile(0, noise=noise), state, cond, rng_for(11))
    ordered = proposal.ordered_txs
    assert check_feasibility(cond, ordered) == 1
    if min_net_profit == 10**18 or (expected is None and min_net_profit > 0):
        assert ordered == [] and proposal.profit_estimate == 0
    elif expected is None:
        # every pair is a candidate, but none can be funded
        assert len(ordered) == min(max_set, 3)
        assert proposal.profit_estimate == 0 and {t.estimate for t in ordered} == {0}
    else:
        # three profitable gaps, cut at the cap
        assert len(ordered) == min(max_set, 3)
        for t in ordered:
            delta = state.deviation(t.venue_id, t.asset)
            opp = opportunity_from_deviation(state, t.asset, t.venue_id, delta)
            assert opp.funding is expected


def test_external_mode_governance_prices_the_external_account():
    """With an empty treasury and network liquidity the only funding, only the
    external account can fund a trade in external mode. Governance must size
    and replay against that account, as the execution does; priced against
    the treasury, every proposal would score 0 while the run still leaks."""
    data = yaml.safe_load((SCENARIOS / "baseline.yaml").read_text(encoding="utf-8"))
    data["balances"] = {"treasury_numeraire": 0.0}
    data["governance"]["allowed_funding"] = ["network_liquidity"]
    result = run_scenario(from_dict(data), seed=42, mode="external")
    assert result.totals["leaked_nano"] > 0
    scores = [p["simulated_net_profit"] for row in result.epoch_rows for p in row["proposals"]]
    assert max(scores) > 0
