"""Whole runs of random small scenarios keep the run-level invariants.

Each drawn scenario is valid and runs in all three modes: conservation
holds to the nano-unit after every block, every generated user tx is
applied or still queued (some are queued when the drawn capacity binds,
and all of them when users hold no endowment), each epoch's ledger pays
out exactly its pool under a drawn split (each group allocated its weight
times the pool, every searcher and marketplace account holding exactly
the payouts settled to it), the beneficiary is never debited inside an epoch
(it gains exactly the block's profit, and the slash when it is the
treasury), every report row's gas and utilization follow from its counts
and the scenario's gas and capacity, every commit uses an allowed funding
kind, the fee burn ends with exactly the run's fees less the producer's
cuts and the producer with its cuts less its slashes, a rerun writes the
same bytes, and no run aborts.

A cold run reuses nothing: its decision slots never hit, each proposal
is replayed on its own, and it draws its own user flow. It writes the
same bytes and ends in the same state as a warm run on a shared flow, so
no reuse the runs make (decision slots, shared replays, one flow per seed)
changes a result.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chainbalancer.runner as runner_mod
from chainbalancer.config import MODES, from_dict
from chainbalancer.report import dumps_report
from chainbalancer.rewards import GROUP_MARKETPLACES, GROUP_SEARCHERS, GROUPS
from chainbalancer.runner import SimulationRun, draw_user_flow, run_scenario
from chainbalancer.market import NUMERAIRE
from chainbalancer.searchers import evaluate_proposals
from chainbalancer.state import (
    EXTERNAL,
    FEE_BURN,
    PRODUCER,
    TREASURY,
    marketplace_account,
    searcher_account,
)
from chainbalancer.units import to_nano

EPOCHS, EPOCH_LENGTH = 2, 4

# 1 nano-unit to 10^8 units, spread over every order of magnitude
RESERVES = st.builds(
    lambda digit, exponent: min(digit * 10**exponent, 10**17) / 1e9,
    st.integers(1, 9),
    st.integers(0, 17),
)
BENEFICIARY_NUMERAIRE = st.sampled_from([0.0, 0.001, 0.05, 1.0, 1_000_000.0])


@st.composite
def scenarios(draw) -> dict:
    venues = draw(st.integers(2, 4))  # venue 0 is the reference
    # blocks of 1-3 user swaps (plus spare gas) against well over 3 arrivals
    # a block, so the carry queue fills, or of 4-60 swaps against 5 arrivals
    user_gas = draw(st.integers(1, 100_000))
    if draw(st.booleans()):
        swaps, rate = draw(st.integers(1, 3)), draw(st.floats(12.0, 40.0))
    else:
        swaps, rate = draw(st.integers(4, 60)), 5.0
    capacity = swaps * user_gas + draw(st.integers(0, user_gas - 1))
    assets = draw(st.integers(1, 3))  # the numeraire not counted
    pools = [
        {
            "venue": venue,
            "asset": asset,
            "reserve_asset": draw(RESERVES),
            "reserve_numeraire": draw(RESERVES),
            "fee": draw(st.floats(0.0, 0.099)),
            "reference": venue == 0,
        }
        for venue in range(venues)
        for asset in range(1, assets + 1)
    ]
    raw = {
        "assets": {"count": assets + 1},
        "pools": pools,
        "blocks": {
            "epochs": EPOCHS,
            "epoch_length": EPOCH_LENGTH,
            "capacity": capacity,
            "gas_per_user_swap": user_gas,
            "gas_per_balancer_tx": draw(st.integers(1, capacity)),
        },
        # the default endowment, none (every debit fails, so every user tx is
        # deferred) or a few units (some debits fail)
        "user_flow": {"rate": rate, "endowment": draw(st.sampled_from([1_000_000.0, 0.0, 5.0]))},
        "threshold": {
            "epsilon": 10 ** draw(st.floats(-9.0, math.log10(0.5))),
            "gas_price": draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-5))),
        },
        "governance": {
            "allowed_funding": draw(
                st.lists(st.sampled_from(["flash_loan", "network_liquidity"]),
                         min_size=1, max_size=2, unique=True)
            ),
            "max_set_size": draw(st.integers(1, 4)),
            "min_net_profit": draw(st.one_of(st.just(0.0), st.floats(1e-9, 1.0))),
        },
        # the beneficiary's numeraire from none to plenty, so that network
        # liquidity is sometimes just short of a trade and the funding flips
        "balances": {
            "treasury_numeraire": draw(BENEFICIARY_NUMERAIRE),
            "lender_numeraire": draw(st.sampled_from([0.0, 1_000_000_000.0])),
            "external_numeraire": draw(BENEFICIARY_NUMERAIRE),
        },
        # corners rather than a spread: slashing needs a permuted block with
        # two commits in it, which a rare permutation or frequent reverts hide
        "producer": {"dishonesty_rate": draw(st.sampled_from([0.0, 0.5, 1.0]))},
        "chaos": {"forced_revert_rate": draw(st.sampled_from([0.0, 0.2, 1.0]))},
        "seeds": [draw(st.integers(0, 2**32))],
    }
    # omega in exact thousandths: two cuts of [0, 1000], each a corner (a
    # group weighted 0 or 1) a third of the time
    cut = st.sampled_from([0, 1000]) | st.integers(0, 1000) | st.integers(1, 999)
    low, high = sorted((draw(cut), draw(cut)))
    omega = {"searchers": low, "marketplaces": high - low, "treasury": 1000 - high}
    raw["weights"] = {"omega": {group: share / 1000 for group, share in omega.items()}}
    return raw


class BeneficiaryTap(SimulationRun):
    """A run that copies the beneficiary's balances at genesis and at the
    close of every block."""

    def _balances(self):
        holder = EXTERNAL if self.mode == "external" else TREASURY
        return [self.state.balance(holder, a) for a in range(self.config.asset_count)]

    def execute(self):
        self.closing = [self._balances()]
        return super().execute()

    def _sample_block(self, block):
        super()._sample_block(block)
        self.closing.append(self._balances())


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=scenarios())
def test_random_scenarios_keep_run_invariants(raw):
    config = from_dict(raw)
    seed = config.seeds[0]
    capacity = raw["blocks"]["capacity"]
    user_gas, gas_per_tx = raw["blocks"]["gas_per_user_swap"], raw["blocks"]["gas_per_balancer_tx"]
    fee_per_tx = gas_per_tx * to_nano(raw["threshold"]["gas_price"])
    assert config.threshold.gas_fee_nano == fee_per_tx
    for mode in MODES:
        run = BeneficiaryTap(config, seed, mode)
        result = run.execute()
        assert len(result.blocks) == EPOCHS * EPOCH_LENGTH
        assert result.totals["max_conservation_drift_nano"] == 0
        report = result.report()
        reconciliation = report["final"]["reconciliation"]
        assert reconciliation["generated"] == reconciliation["applied"] + reconciliation["queued"]
        if capacity // user_gas < 4:
            assert reconciliation["queued"] > 0
        if config.endowment == 0:
            assert reconciliation["applied"] == 0
            assert reconciliation["queued"] == reconciliation["generated"]
        for row in report["blocks"]:
            assert row["user_gas"] == row["user_applied"] * user_gas
            assert row["balancer_gas"] == row["balancer_committed"] * gas_per_tx
            assert row["work"] == row["user_gas"] + row["balancer_gas"] <= capacity
            assert row["utilization"] == row["work"] / capacity
        for block in result.blocks:
            for record in block.balancer_executed:
                assert record.funding.value in raw["governance"]["allowed_funding"]
        # each commit's fee is split: the producer's cut, less its slashes,
        # stays with the producer and the rest is burned
        final = result.final_state
        assert final.balance(FEE_BURN, NUMERAIRE) == sum(
            len(b.balancer_executed) * fee_per_tx - b.producer_fee for b in result.blocks
        )
        assert final.balance(PRODUCER, NUMERAIRE) == sum(
            b.producer_fee for b in result.blocks
        ) - sum(b.slashed for b in result.blocks)

        # inside an epoch the beneficiary only gains: the block's profit, and
        # the block's slash when the beneficiary is the treasury
        slash_to_beneficiary = mode != "external"
        for block, before, after in zip(result.blocks, run.closing, run.closing[1:]):
            if block.index % EPOCH_LENGTH == 0 and block.index > 0:
                continue  # epoch payouts debit between epochs
            gain = block.profit + (block.slashed if slash_to_beneficiary else 0)
            assert [b - a for a, b in zip(before, after)] == [gain] + [0] * (len(before) - 1)

        settled = [ledger for ledger in result.ledgers if ledger is not None]
        for epoch, ledger in enumerate(result.ledgers):
            if mode != "autobalancer":
                assert ledger is None
                continue
            blocks = result.blocks[epoch * EPOCH_LENGTH:(epoch + 1) * EPOCH_LENGTH]
            pool = ledger.profit_pool
            assert pool == sum(b.profit for b in blocks)
            assert ledger.allocations == {
                group: getattr(config.reward_weights, group) * pool for group in GROUPS
            }
            assert sum(ledger.payouts.values()) == pool
            assert sum(ledger.marketplace_payouts.values()) == ledger.payouts[GROUP_MARKETPLACES]
            assert min(*ledger.payouts.values(), *ledger.marketplace_payouts.values()) >= 0
        # settlement is the only transfer to a searcher or marketplace account
        # (a positive pool has commits, so a selected proposal)
        assert sum(
            final.balance(searcher_account(p.searcher_id), NUMERAIRE)
            for p in config.searcher_profiles
        ) == sum(ledger.payouts[GROUP_SEARCHERS] for ledger in settled)
        for venue in config.venue_ids:
            assert final.balance(marketplace_account(venue), NUMERAIRE) == sum(
                ledger.marketplace_payouts[venue] for ledger in settled
            )

        rerun = run_scenario(config, seed=seed, mode=mode)
        assert dumps_report(rerun.report()) == dumps_report(report)


class ColdSlots(dict):
    """Decision slots that never hit: every `chain.decide` decides afresh."""

    def get(self, key, default=None):
        return default


def evaluate_each_alone(proposals, recent_blocks, credibility):
    """`evaluate_proposals` with every proposal replayed on its own, so no
    two proposals share a replay; the highest score wins, ties to the
    lowest searcher id."""
    scores = {}
    for proposal in proposals:
        scores |= evaluate_proposals([proposal], recent_blocks, credibility)[1]
    selected = min(
        (p for p in proposals if p.ordered_txs),
        key=lambda p: (-scores[p.searcher_id]["score"], p.searcher_id),
        default=None,
    )
    return selected, scores


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=scenarios())
def test_cold_runs_match_warm_runs(raw):
    config = from_dict(raw)
    seed = config.seeds[0]
    flow = draw_user_flow(config, seed)
    for mode in MODES:
        warm = run_scenario(config, seed=seed, mode=mode, flow=flow)
        run = SimulationRun(config, seed, mode)
        run.state.decisions = ColdSlots()  # every clone shares it
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner_mod, "evaluate_proposals", evaluate_each_alone)
            cold = run.execute()  # draws its own flow
        assert dumps_report(cold.report()) == dumps_report(warm.report())
        assert cold.final_state == warm.final_state
