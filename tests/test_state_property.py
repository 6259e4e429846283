"""Random operation sequences on a ChainState keep the invariants.

User swaps and atomic balancer attempts, under both funding kinds and
with injected faults, in any order: per-asset totals never move by one
nano-unit, a beneficiary's numeraire never falls, and a revert writes
nothing.
"""

import copy
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalancer import (
    Funding,
    SwapDirection,
    Threshold,
    execute_atomic,
    spot_price,
)
from chainbalancer.arbitrage import Opportunity, opportunity_from_deviation
from chainbalancer.chain import UserTx, execute_block_user_phase
from chainbalancer.market import NUMERAIRE
from chainbalancer.state import EXTERNAL, TREASURY, user_account
from chainbalancer.units import to_nano

from conftest import make_pool, make_state

REFERENCE = 0
VENUES = (0, 1, 2)
ASSETS = (1, 2)
USERS = 3
THRESHOLD = Threshold(epsilon=0.001, flash_fee=0.0009, gas_price=1e-7)


@st.composite
def states(draw):
    pools = [
        make_pool(
            venue,
            asset,
            reserve_asset=draw(st.floats(100.0, 50_000.0)),
            reserve_numeraire=draw(st.floats(100.0, 50_000.0)),
            fee=draw(st.sampled_from([0.0, 0.003, 0.01])),
            is_reference=venue == REFERENCE,
        )
        for venue in VENUES
        for asset in ASSETS
    ]
    state = make_state(
        pools,
        treasury_numeraire=draw(st.sampled_from([0.0, 1_000.0, 1e6])),
        lender=draw(st.sampled_from([0.0, 1_000.0, 1e6])),
    )
    for user in range(USERS):
        for asset in (NUMERAIRE, *ASSETS):
            state.credit(user_account(user), asset, to_nano(5_000.0))
    return state


user_swaps = st.tuples(
    st.just("user"),
    st.sampled_from(VENUES),
    st.sampled_from(ASSETS),
    st.sampled_from(list(SwapDirection)),
    st.integers(1, 10**13),
    st.integers(0, USERS - 1),
)
balancer_attempts = st.tuples(
    st.just("atomic"),
    st.sampled_from(VENUES[1:]),
    st.sampled_from(ASSETS),
    st.sampled_from(list(Funding)),
    st.sampled_from([TREASURY, EXTERNAL]),
    st.booleans(),  # inject a fault
    # None sizes the trade from the live deviation; otherwise a forced size
    # and cheap pool (the venue's or the reference's), which is usually
    # unprofitable and must revert
    st.one_of(st.none(), st.tuples(st.integers(1, 10**14), st.sampled_from(["venue", "reference"]))),
)


def _snapshot(state):
    return (
        {key: (p.reserve_base, p.reserve_quote) for key, p in state.pools.items()},
        copy.deepcopy(state.accounts),
    )


def _opportunity(state, venue, asset, funding, beneficiary, forced):
    ref_price = spot_price(state.pool(REFERENCE, asset))
    delta_p = (spot_price(state.pool(venue, asset)) - ref_price) / ref_price
    if forced is None:
        thr = replace(THRESHOLD, allowed_funding=frozenset({funding}))
        return opportunity_from_deviation(state, REFERENCE, thr, asset, venue, delta_p, beneficiary)
    size, cheap_side = forced
    venue_key, ref_key = (venue, asset), (REFERENCE, asset)
    cheap, dear = (venue_key, ref_key) if cheap_side == "venue" else (ref_key, venue_key)
    return Opportunity(cheap, dear, size, 0, funding)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(state=states(), steps=st.lists(st.one_of(user_swaps, balancer_attempts), min_size=1, max_size=30))
def test_random_operations_conserve_totals_and_never_cost_the_beneficiary(state, steps):
    totals = state.asset_totals()
    numeraire = {b: state.balance(b, NUMERAIRE) for b in (TREASURY, EXTERNAL)}
    for tx_id, step in enumerate(steps):
        if step[0] == "user":
            _, venue, asset, direction, amount, user = step
            tx = UserTx(tx_id, venue, asset, direction, amount, 21_000, user_account(user))
            execute_block_user_phase(state, [tx], capacity=10**9)
        else:
            _, venue, asset, funding, beneficiary, fault, forced = step
            opp = _opportunity(state, venue, asset, funding, beneficiary, forced)
            if opp is None:
                continue
            before = _snapshot(state)
            paid_before = state.balance(beneficiary, NUMERAIRE)
            result = execute_atomic(state, opp, THRESHOLD, beneficiary, inject_fault=fault)
            if result.committed:
                assert not fault
                assert state.balance(beneficiary, NUMERAIRE) - paid_before == result.profit >= 0
            else:
                assert _snapshot(state) == before, result.reason
        assert state.asset_totals() == totals
        for holder, floor in numeraire.items():
            assert state.balance(holder, NUMERAIRE) >= floor
            numeraire[holder] = state.balance(holder, NUMERAIRE)
