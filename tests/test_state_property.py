"""Random operation sequences on a ChainState keep the invariants.

User swaps and atomic balancer attempts, under both funding kinds and
with injected faults, in any order: per-asset totals never move by one
nano-unit, a beneficiary's numeraire never falls, and a revert writes
nothing. User swaps and balancer phases under several thresholds, in any
order: a phase on a state whose decision slots are warm (one slot map for
every threshold) does what it does on empty slots. A user phase given the
room `capacity // gas` applies, carries and logs what a scan summing each
applied swap's gas against the capacity does.
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
from chainbalancer.chain import UserTx, execute_block_balancer_phase, execute_block_user_phase
from chainbalancer.market import NUMERAIRE, execute_swap
from chainbalancer.searchers import BalancerTemplate
from chainbalancer.state import EXTERNAL, TREASURY, user_account
from chainbalancer.units import to_nano

from conftest import make_pool, make_state

REFERENCE = 0
VENUES = (0, 1, 2)
ASSETS = (1, 2)
USERS = 3
THRESHOLD = Threshold(epsilon=0.001, flash_fee=0.0009, gas_price=1e-7)
ROOM = 10**9 // THRESHOLD.gas_per_tx  # the balancer txs 10^9 gas holds
# phases under each of them share the state's one slot map
PHASE_THRESHOLDS = (
    THRESHOLD,
    replace(THRESHOLD, epsilon=0.02),
    *(replace(THRESHOLD, allowed_funding=frozenset({funding})) for funding in Funding),
)


@st.composite
def states(draw):
    pools = [
        make_pool(
            venue,
            asset,
            reserve_asset=draw(st.floats(100.0, 50_000.0)),
            reserve_numeraire=draw(st.floats(100.0, 50_000.0)),
            fee=draw(st.sampled_from([0.0, 0.003, 0.01])),
        )
        for venue in VENUES
        for asset in ASSETS
    ]
    state = make_state(
        pools,
        treasury_numeraire=draw(st.sampled_from([0.0, 1_000.0, 1e6])),
        lender=draw(st.sampled_from([0.0, 1_000.0, 1e6])),
        reference_venue_id=REFERENCE,
        threshold=THRESHOLD,
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


balancer_phases = st.tuples(
    st.just("phase"),
    # every template, in any order: each phase decides on every pool
    st.permutations([(venue, asset) for venue in VENUES[1:] for asset in ASSETS]),
    st.sampled_from(PHASE_THRESHOLDS),
    st.sampled_from([TREASURY, EXTERNAL]),
    st.booleans(),  # inject a fault into every sized attempt
)


def _snapshot(state):
    return (
        {key: (p.reserve_base, p.reserve_quote) for key, p in state.pools.items()},
        copy.deepcopy(state.accounts),
    )


def _apply_user_swap(state, tx_id, step):
    _, venue, asset, direction, amount, user = step
    tx = UserTx(tx_id, venue, asset, direction, amount, user_account(user))
    execute_block_user_phase(state, [tx], room=1)


def _opportunity(state, venue, asset, funding, forced):
    ref_price = spot_price(state.pools[(REFERENCE, asset)])
    delta_p = (spot_price(state.pools[(venue, asset)]) - ref_price) / ref_price
    if forced is None:
        return opportunity_from_deviation(state, asset, venue, delta_p)
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
            _apply_user_swap(state, tx_id, step)
        else:
            _, venue, asset, funding, beneficiary, fault, forced = step
            state.beneficiary = beneficiary
            # only the funding kinds differ from THRESHOLD, and execute_atomic reads none
            state.threshold = replace(THRESHOLD, allowed_funding=frozenset({funding}))
            opp = _opportunity(state, venue, asset, funding, forced)
            if opp is None:
                continue
            before = _snapshot(state)
            paid_before = state.balance(beneficiary, NUMERAIRE)
            result = execute_atomic(state, opp, inject_fault=fault)
            if result.committed:
                assert not fault
                assert state.balance(beneficiary, NUMERAIRE) - paid_before == result.profit >= 0
            else:
                assert _snapshot(state) == before, result.reason
        assert state.asset_totals() == totals
        for holder, floor in numeraire.items():
            assert state.balance(holder, NUMERAIRE) >= floor
            numeraire[holder] = state.balance(holder, NUMERAIRE)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(state=states(), steps=st.lists(st.one_of(user_swaps, balancer_phases), min_size=1, max_size=30))
def test_a_phase_on_warm_decision_slots_equals_one_on_empty_slots(state, steps):
    for tx_id, step in enumerate(steps):
        if step[0] == "user":
            _apply_user_swap(state, tx_id, step)
            continue
        _, keys, threshold, beneficiary, fault = step
        state.beneficiary = beneficiary
        state.threshold = threshold
        templates = [BalancerTemplate(asset, venue) for venue, asset in keys]
        cold = state.clone()
        cold.decisions = {}
        warm_phase = execute_block_balancer_phase(state, templates, ROOM, lambda t: fault)
        cold_phase = execute_block_balancer_phase(cold, templates, ROOM, lambda t: fault)
        assert warm_phase == cold_phase
        assert state == cold


def _user_phase_by_gas(state, pending, capacity, gas):
    """The user phase as a gas sum: stop once the next swap would overflow."""
    applied, deferred, events, used = [], [], [], 0
    for i, tx in enumerate(pending):
        if used + gas > capacity:
            return applied, list(pending[i:]) + deferred, events
        base_in = tx.direction is SwapDirection.BASE_IN
        pay, get = (tx.asset, NUMERAIRE) if base_in else (NUMERAIRE, tx.asset)
        if state.balance(tx.submitter, pay) < tx.amount_in:
            deferred.append(tx)
            events.append((tx, "balance_deferred"))
            continue
        state.debit(tx.submitter, pay, tx.amount_in)
        pool = state.pools[(tx.venue_id, tx.asset)]
        state.credit(tx.submitter, get, execute_swap(pool, tx.direction, tx.amount_in))
        used += gas
        applied.append(tx)
        events.append((tx, "applied"))
    return applied, deferred, events


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    state=states(),
    capacity=st.integers(1, 500_000),
    gas=st.integers(1, 100_000),
    pending=st.lists(
        st.tuples(
            st.sampled_from(VENUES),
            st.sampled_from(ASSETS),
            st.sampled_from(list(SwapDirection)),
            st.integers(1, 10**13),
            st.integers(0, USERS),  # user USERS holds nothing: each of its swaps is deferred
        ),
        max_size=25,
    ),
)
def test_a_user_room_applies_what_summing_gas_against_capacity_does(state, capacity, gas, pending):
    txs = [
        UserTx(tx_id, venue, asset, direction, amount, user_account(user))
        for tx_id, (venue, asset, direction, amount, user) in enumerate(pending)
    ]
    by_gas = state.clone()
    expected = _user_phase_by_gas(by_gas, txs, capacity, gas)
    result = execute_block_user_phase(state, txs, capacity // gas)
    assert (result.applied, result.carried, result.events) == expected
    assert state == by_gas
