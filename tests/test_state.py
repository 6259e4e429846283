"""Chain-state bookkeeping: reads never create holders."""

import pytest

from chainbalancer.market import NUMERAIRE
from chainbalancer.state import ChainState, InsufficientBalanceError

from conftest import make_pool


def fresh_state():
    state = ChainState(pools={(0, 1): make_pool(0, is_reference=True)})
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
        with pytest.raises(InsufficientBalanceError):
            state.debit("nobody", NUMERAIRE, 1)
        with pytest.raises(InsufficientBalanceError):
            state.transfer("nobody", "alice", NUMERAIRE, 1)
        assert state.accounts == {"alice": {NUMERAIRE: 5}}
