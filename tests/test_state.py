"""Chain-state bookkeeping: reads never create holders."""

import pytest

from chainbalancer.arbitrage import Threshold
from chainbalancer.market import NUMERAIRE, spot_price
from chainbalancer.runner import SimulationRun
from chainbalancer.state import ChainState, InsufficientBalanceError

from conftest import make_pool


def fresh_state():
    state = ChainState(pools={(0, 1): make_pool(0)}, reference_venue_id=0, threshold=Threshold())
    state.credit("alice", NUMERAIRE, 5)
    return state


class TestReadsDoNotWrite:
    def test_balance_of_unknown_holder_is_zero_and_not_inserted(self):
        state = fresh_state()
        assert state.balance("nobody", NUMERAIRE) == 0
        assert state.balance("alice", 7) == 0
        assert state.accounts == {"alice": {NUMERAIRE: 5}}

    def test_failed_debit_of_unknown_holder_inserts_nothing(self):
        state = fresh_state()
        with pytest.raises(InsufficientBalanceError, match="nobody needs 1 nano of asset 0, has 0"):
            state.debit("nobody", NUMERAIRE, 1)
        with pytest.raises(InsufficientBalanceError):
            state.transfer("nobody", "alice", NUMERAIRE, 1)
        assert state.accounts == {"alice": {NUMERAIRE: 5}}

    @pytest.mark.parametrize("operation", ["credit", "debit"])
    def test_a_negative_amount_is_rejected_and_writes_nothing(self, operation):
        state = fresh_state()
        with pytest.raises(ValueError, match=f"^{operation} amount must be non-negative$"):
            getattr(state, operation)("alice", NUMERAIRE, -1)
        assert state.accounts == {"alice": {NUMERAIRE: 5}}


def three_venue_state(reference_venue_id=0):
    """Asset 1 at 1.0 on venue 0, 3% dearer on venue 1, 3% cheaper on venue 2."""
    pools = {
        (0, 1): make_pool(0, reserve_asset=1000.0, reserve_numeraire=1000.0),
        (1, 1): make_pool(1, reserve_asset=1000.0, reserve_numeraire=1030.0),
        (2, 1): make_pool(2, reserve_asset=1000.0, reserve_numeraire=970.0),
    }
    return ChainState(pools, reference_venue_id, Threshold())


class TestDeviation:
    def test_matches_the_spot_price_formula_on_both_signs(self):
        state = three_venue_state()
        p_r = spot_price(state.pools[(0, 1)])
        for venue, sign in ((1, 1), (2, -1)):
            expected = (spot_price(state.pools[(venue, 1)]) - p_r) / p_r
            assert sign * expected > 0
            assert state.deviation(venue, 1) == expected
        assert state.deviation(0, 1) == 0.0

    def test_measured_against_the_state_reference(self):
        state = three_venue_state(reference_venue_id=1)
        p_r = spot_price(state.pools[(1, 1)])
        assert state.deviation(0, 1) == (spot_price(state.pools[(0, 1)]) - p_r) / p_r < 0
        assert state.deviation(1, 1) == 0.0

    def test_clone_keeps_the_reference(self):
        state = three_venue_state(reference_venue_id=2)
        copy = state.clone()
        assert copy.reference_venue_id == 2
        assert copy.deviation(1, 1) == state.deviation(1, 1) > 0


class TestThreshold:
    def test_is_required(self):
        with pytest.raises(TypeError, match="threshold"):
            ChainState({(0, 1): make_pool(0)}, 0)

    def test_clone_shares_the_threshold_object(self):
        state = three_venue_state()
        assert state.clone().threshold is state.threshold

    def test_a_run_state_carries_the_config_threshold(self, baseline_config):
        run = SimulationRun(baseline_config, seed=42, mode="autobalancer")
        assert run.state.threshold is baseline_config.threshold
