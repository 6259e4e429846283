"""Whole runs of random small scenarios keep the run-level invariants.

Each drawn scenario is valid and runs in all three modes: conservation
holds to the nano-unit after every block, every generated user tx is
applied or still queued (and some are queued when the drawn capacity
binds), each epoch's ledger pays out exactly its pool,
the beneficiary is never debited inside an epoch (it gains exactly the
block's profit, and the slash when it is the treasury), every committed
balancer tx costs the run's one gas and fee per tx and uses an allowed
funding kind, a rerun writes the same bytes, and no run aborts.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainbalancer.config import MODES, from_dict
from chainbalancer.report import dumps_report
from chainbalancer.rewards import GROUP_MARKETPLACES
from chainbalancer.runner import SimulationRun, run_scenario
from chainbalancer.state import EXTERNAL, TREASURY
from chainbalancer.units import to_nano

EPOCHS, EPOCH_LENGTH = 2, 4
USER_GAS = 21_000  # the default gas per user swap

# 1 nano-unit to 10^8 units, spread over every order of magnitude
RESERVES = st.builds(
    lambda digit, exponent: min(digit * 10**exponent, 10**17) / 1e9,
    st.integers(1, 9),
    st.integers(0, 17),
)


@st.composite
def scenarios(draw) -> dict:
    venues = draw(st.integers(2, 4))  # venue 0 is the reference
    # the default capacity, or one of 1-3 user swaps (plus spare gas) against
    # well over 3 arrivals a block, so the carry queue fills
    if draw(st.booleans()):
        capacity = draw(st.integers(1, 3)) * USER_GAS + draw(st.integers(0, USER_GAS - 1))
        rate = draw(st.floats(12.0, 40.0))
    else:
        capacity, rate = 1_000_000, 5.0
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
    return {
        "assets": {"count": assets + 1},
        "pools": pools,
        "blocks": {
            "epochs": EPOCHS,
            "epoch_length": EPOCH_LENGTH,
            "capacity": capacity,
            "gas_per_balancer_tx": draw(st.integers(1, capacity)),
        },
        "user_flow": {"rate": rate},
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
        "balances": {
            "treasury_numeraire": draw(st.sampled_from([0.0, 1_000_000.0])),
            "lender_numeraire": draw(st.sampled_from([0.0, 1_000_000_000.0])),
        },
        # corners rather than a spread: slashing needs a permuted block with
        # two commits in it, which a rare permutation or frequent reverts hide
        "producer": {"dishonesty_rate": draw(st.sampled_from([0.0, 0.5, 1.0]))},
        "chaos": {"forced_revert_rate": draw(st.sampled_from([0.0, 0.2, 1.0]))},
        "seeds": [draw(st.integers(0, 2**32))],
    }


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
    gas_per_tx = raw["blocks"]["gas_per_balancer_tx"]
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
        if config.capacity < 4 * USER_GAS:
            assert reconciliation["queued"] > 0
        for block in result.blocks:
            commits = len(block.balancer_executed)
            assert block.balancer_gas == commits * gas_per_tx
            assert block.fees_collected == commits * fee_per_tx
            for record in block.balancer_executed:
                assert record.funding.value in raw["governance"]["allowed_funding"]
            assert block.user_gas + block.balancer_gas <= config.capacity

        # inside an epoch the beneficiary only gains: the block's profit, and
        # the block's slash when the beneficiary is the treasury
        slash_to_beneficiary = mode != "external"
        for block, before, after in zip(result.blocks, run.closing, run.closing[1:]):
            if block.index % EPOCH_LENGTH == 0 and block.index > 0:
                continue  # epoch payouts debit between epochs
            gain = block.profit + (block.slashed if slash_to_beneficiary else 0)
            assert [b - a for a, b in zip(before, after)] == [gain] + [0] * (len(before) - 1)

        for epoch, ledger in enumerate(result.ledgers):
            if mode != "autobalancer":
                assert ledger is None
                continue
            blocks = result.blocks[epoch * EPOCH_LENGTH:(epoch + 1) * EPOCH_LENGTH]
            assert ledger.profit_pool == sum(b.profit for b in blocks)
            assert sum(ledger.payouts.values()) == ledger.profit_pool
            assert sum(ledger.marketplace_payouts.values()) == ledger.payouts[GROUP_MARKETPLACES]

        rerun = run_scenario(config, seed=seed, mode=mode)
        assert dumps_report(rerun.report()) == dumps_report(report)
