"""Run orchestration: epochs, blocks, rewards, and report assembly.

One run is a pure function of (scenario config, seed, mode). Independent
RNG streams drive user flow, searcher noise, producer honesty, and fault
injection, so the user flow is identical across modes for the same seed.

Modes:
    off           no balancer phase; the no-intervention baseline
    autobalancer  profits accrue to the treasury and are redistributed
    external      the same arbitrage runs, but profits leave the protocol
                  (tracked in the external account; nothing redistributed)
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from random import Random

from .chain import (
    Block,
    UserTx,
    execute_block_balancer_phase,
    execute_block_user_phase,
    generate_user_flow,
    performance_cost_psi,
    utilization,
)
from .config import MODES, ScenarioConfig
from .market import NUMERAIRE, snapshot_prices
from .metrics import (
    cumulative_discrepancy,
    deviation_pairs,
    discrepancy_pairs,
    epoch_constraint_check,
    max_relative_deviation,
    ordered_sum,
    scalarized_objective,
)
from .rewards import (
    GROUP_SEARCHERS,
    RewardLedger,
    apply_slashing,
    build_ledger,
    measure_contribution,
    pay_producer,
)
from .searchers import (
    SearcherProposal,
    build_proposal,
    evaluate_proposals,
    update_credibility,
)
from .state import (
    EXTERNAL,
    FEE_BURN,
    FEE_ESCROW,
    LENDER,
    PRODUCER,
    TREASURY,
    ChainState,
    marketplace_account,
    searcher_account,
    user_account,
)
from .units import to_nano, to_units

MODE_OFF, MODE_AUTO, MODE_EXTERNAL = MODES


class SimulationAbort(RuntimeError):
    """A module error surfaced mid-run, tagged with its coordinate."""

    def __init__(self, epoch: int, block: int, cause: Exception):
        super().__init__(f"aborted at epoch {epoch}, block {block}: {cause}")
        self.epoch = epoch
        self.block = block


@dataclass
class RunResult:
    config: ScenarioConfig
    seed: int
    mode: str
    blocks: list[Block] = field(default_factory=list)
    epoch_rows: list[dict] = field(default_factory=list)
    ledgers: list[RewardLedger | None] = field(default_factory=list)
    final_state: ChainState | None = None
    totals: dict = field(default_factory=dict)
    user_flow_digest: str = ""
    pending_at_end: int = 0
    generated_txs: int = 0

    def report(self) -> dict:
        """JSON-ready nested report; deterministic for a fixed config+seed."""
        cfg = self.config
        block_rows = []
        for block in self.blocks:
            util = utilization(block)
            profit = to_units(block.profit)
            block_rows.append(
                {
                    "block": block.index,
                    "discrepancy": block.discrepancy,
                    "utilization": util,
                    "psi": performance_cost_psi(block, cfg.u_star),
                    "scalarized": scalarized_objective(
                        block.discrepancy, util, cfg.objective_weights
                    ),
                    "captured_profit": profit if self.mode == MODE_AUTO else 0.0,
                    "leaked_profit": profit if self.mode == MODE_EXTERNAL else 0.0,
                    "max_abs_deviation": block.max_abs_deviation,
                    "work": block.work,
                    "user_gas": block.user_gas,
                    "balancer_gas": block.balancer_gas,
                    "user_applied": len(block.user_txs),
                    "balancer_committed": len(block.balancer_executed),
                    "balancer_skipped": len(block.balancer_skipped),
                    "producer_fee": to_units(block.producer_fee),
                    "slashed": to_units(block.slashed),
                }
            )
        return {
            "header": {
                "generator": "chainbalancer 0.1.0",
                "config_hash": self.config.config_hash(),
                "seed": self.seed,
                "mode": self.mode,
            },
            "blocks": block_rows,
            "epochs": self.epoch_rows,
            "final": {
                "treasury": {
                    str(a): to_units(v)
                    for a, v in sorted(self.final_state.accounts.get(TREASURY, {}).items())
                },
                "balances": {
                    holder: {str(a): to_units(v) for a, v in sorted(bal.items())}
                    for holder, bal in sorted(self.final_state.accounts.items())
                    if holder != TREASURY
                },
                "totals": self.totals,
                "reconciliation": {
                    "generated": self.generated_txs,
                    "applied": sum(len(b.user_txs) for b in self.blocks),
                    "queued": self.pending_at_end,
                },
                "user_flow_digest": self.user_flow_digest,
            },
        }


def _genesis_state(config: ScenarioConfig) -> ChainState:
    state = ChainState(pools=config.build_pools())
    endowment = to_nano(config.endowment)
    for user in range(config.user_flow.num_users):
        for asset in range(config.asset_count):
            state.credit(user_account(user), asset, endowment)
    state.credit(TREASURY, NUMERAIRE, to_nano(config.treasury_numeraire))
    state.credit(LENDER, NUMERAIRE, to_nano(config.lender_numeraire))
    state.credit(EXTERNAL, NUMERAIRE, to_nano(config.external_numeraire))
    for holder in (PRODUCER, FEE_ESCROW, FEE_BURN):
        state.credit(holder, NUMERAIRE, 0)
    return state


def _ledger_row(ledger: RewardLedger | None, epoch: list[Block]) -> dict | None:
    if ledger is None:
        return None
    return {
        "profit_pool": to_units(ledger.profit_pool),
        "allocations": {k: float(v) for k, v in ledger.allocations.items()},
        "payouts_nano": dict(ledger.payouts),
        "marketplace_allocations": {
            str(k): float(v) for k, v in sorted(ledger.marketplace_allocations.items())
        },
        "marketplace_payouts_nano": {
            str(k): v for k, v in sorted(ledger.marketplace_payouts.items())
        },
        "producer_fees": to_units(sum(b.producer_fee for b in epoch)),
        "slashed": to_units(sum(b.slashed for b in epoch)),
    }


class SimulationRun:
    """Single seeded run of one scenario in one mode."""

    def __init__(self, config: ScenarioConfig, seed: int, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.config = config
        self.seed = seed
        self.mode = mode
        # one stream per source, seeded by a label (hashed with sha512); every
        # draw is built from random(), the one stream Python keeps across versions
        self.rng_user = Random(f"{seed}:user")
        self.rng_searchers = {
            p.searcher_id: Random(f"{seed}:searcher:{p.searcher_id}")
            for p in config.searcher_profiles
        }
        self.rng_producer = Random(f"{seed}:producer")
        self.rng_chaos = Random(f"{seed}:chaos")
        self.state = _genesis_state(config)
        # the pool set is fixed for the run, so the snapshot's index plan is too
        keys = list(self.state.pools)
        self._discrepancy_pairs = discrepancy_pairs(keys)
        self._deviation_pairs = deviation_pairs(keys, config.reference_venue_id)
        self.credibility = {p.searcher_id: 1.0 for p in config.searcher_profiles}

    def execute(self) -> RunResult:
        cfg = self.config
        result = RunResult(config=cfg, seed=self.seed, mode=self.mode)
        genesis_totals = self.state.asset_totals()

        n_blocks = cfg.epochs * cfg.epoch_length
        flow = generate_user_flow(
            self.rng_user, cfg.user_flow, n_blocks, cfg.venue_assets
        )
        result.generated_txs = sum(len(txs) for txs in flow)

        beneficiary = EXTERNAL if self.mode == MODE_EXTERNAL else TREASURY
        recent: deque = deque(maxlen=cfg.governance_window)
        carry: list[UserTx] = []
        digest = hashlib.sha256()
        drift = 0
        block_index = 0

        for epoch_index in range(cfg.epochs):
            proposals: list[SearcherProposal] = []
            scores: dict = {}
            selected: SearcherProposal | None = None
            if self.mode != MODE_OFF:
                # the closing state proxies the epoch's expected state;
                # proposals only read it (their replays run on copies)
                for profile in cfg.searcher_profiles:
                    proposals.append(
                        build_proposal(
                            profile,
                            self.state,
                            cfg.governance,
                            cfg.threshold,
                            cfg.reference_venue_id,
                            self.rng_searchers[profile.searcher_id],
                        )
                    )
                replay_contexts = list(recent) or [(self.state, cfg.capacity)]
                selected, scores = evaluate_proposals(
                    proposals,
                    replay_contexts,
                    self.credibility,
                    cfg.threshold,
                    cfg.reference_venue_id,
                )
            active_set = list(selected.ordered_txs) if selected else []

            for _ in range(cfg.epoch_length):
                block = Block(index=block_index, capacity=cfg.capacity)
                pending = carry + flow[block_index]
                user_result = execute_block_user_phase(self.state, pending, cfg.capacity)
                carry = user_result.carried
                block.user_txs = user_result.applied
                block.user_gas = user_result.gas_used
                for tx, status in user_result.events:
                    digest.update(
                        f"{block_index}|{tx.id}|{tx.venue_id}|{tx.asset}|"
                        f"{tx.direction.value}|{tx.amount_in}|{tx.gas}|{status}\n".encode()
                    )

                residual = cfg.capacity - block.user_gas

                prescribed = [(t.asset, t.venue_id) for t in active_set]
                if active_set and self.mode != MODE_OFF:
                    order = list(range(len(active_set)))
                    if (
                        cfg.dishonesty_rate > 0
                        and self.rng_producer.random() < cfg.dishonesty_rate
                    ):
                        # Fisher-Yates, as shuffle() may change across versions
                        for i in range(len(order) - 1, 0, -1):
                            j = int(self.rng_producer.random() * (i + 1))
                            order[i], order[j] = order[j], order[i]
                    templates = [active_set[i] for i in order]
                    injector = None
                    if cfg.forced_revert_rate > 0:
                        injector = (
                            lambda tpl: self.rng_chaos.random() < cfg.forced_revert_rate
                        )
                    phase = execute_block_balancer_phase(
                        self.state,
                        templates,
                        residual,
                        cfg.threshold,
                        cfg.reference_venue_id,
                        beneficiary,
                        fault_injector=injector,
                    )
                    block.balancer_executed = phase.executed
                    block.balancer_skipped = phase.skipped
                    block.balancer_gas = len(phase.executed) * cfg.threshold.gas_per_tx
                    block.fees_collected = len(phase.executed) * cfg.threshold.gas_fee_nano

                    # settle the block's gas fees: gamma to the producer,
                    # the rest is burned (tracked for conservation)
                    fee = pay_producer(block, cfg.gamma)
                    block.producer_fee = fee
                    if block.fees_collected:
                        self.state.transfer(FEE_ESCROW, PRODUCER, NUMERAIRE, fee)
                        self.state.transfer(
                            FEE_ESCROW, FEE_BURN, NUMERAIRE, block.fees_collected - fee
                        )

                    executed = [(r.asset, r.venue_id) for r in block.balancer_executed]
                    penalty = cfg.slash_penalty_multiple * block.producer_fee
                    slash = apply_slashing(
                        executed,
                        prescribed,
                        penalty,
                        self.state.balance(PRODUCER, NUMERAIRE),
                    )
                    if slash:
                        self.state.transfer(PRODUCER, TREASURY, NUMERAIRE, slash)
                    block.slashed = slash

                self._sample_block(block)
                result.blocks.append(block)
                # conservation is checked after every block, not only at the end
                for asset, total in self.state.asset_totals().items():
                    drift = max(drift, abs(total - genesis_totals.get(asset, 0)))
                # governance replays only the last `window` closing states
                # before each epoch boundary, and none in off mode
                blocks_to_boundary = cfg.epoch_length - 1 - block_index % cfg.epoch_length
                if self.mode != MODE_OFF and blocks_to_boundary < cfg.governance_window:
                    recent.append((self.state.clone(), residual))
                self.state.block_height += 1
                block_index += 1

            epoch = result.blocks[-cfg.epoch_length:]
            epoch_profit = sum(b.profit for b in epoch)
            ledger = self._settle_epoch(epoch, selected)
            result.ledgers.append(ledger)
            constraint = epoch_constraint_check(
                [performance_cost_psi(b, cfg.u_star) for b in epoch],
                cfg.objective_weights.delta_cap,
            )
            if selected is not None:
                sid = selected.searcher_id
                self.credibility[sid] = update_credibility(
                    self.credibility[sid], selected.profit_estimate, epoch_profit, cfg.beta
                )
            result.epoch_rows.append(
                {
                    "epoch": epoch_index,
                    "selected_searcher": selected.searcher_id if selected else None,
                    "active_set_size": len(active_set),
                    "proposals": [
                        {
                            "searcher_id": p.searcher_id,
                            "n_txs": len(p.ordered_txs),
                            "profit_estimate": to_units(p.profit_estimate),
                            **scores[p.searcher_id],
                        }
                        for p in proposals
                    ],
                    "profit_pool": to_units(epoch_profit),
                    "reward_ledger": _ledger_row(ledger, epoch),
                    "constraint": {
                        "mean_psi": constraint.mean_psi,
                        "delta": float(cfg.objective_weights.delta_cap),
                        "satisfied": constraint.satisfied,
                    },
                    "credibility": {
                        str(sid): score for sid, score in sorted(self.credibility.items())
                    },
                }
            )

        result.final_state = self.state
        result.pending_at_end = len(carry)
        result.user_flow_digest = digest.hexdigest()

        committed = sum(b.profit for b in result.blocks)
        captured_total = committed if self.mode == MODE_AUTO else 0
        leaked_total = committed if self.mode == MODE_EXTERNAL else 0
        n = max(1, len(result.blocks))
        result.totals = {
            "captured": to_units(captured_total),
            "captured_nano": captured_total,
            "leaked": to_units(leaked_total),
            "leaked_nano": leaked_total,
            "mean_discrepancy": ordered_sum(b.discrepancy for b in result.blocks) / n,
            "mean_utilization": ordered_sum(utilization(b) for b in result.blocks) / n,
            "max_abs_deviation": max(
                (b.max_abs_deviation for b in result.blocks), default=0.0
            ),
            "producer_fees_nano": sum(b.producer_fee for b in result.blocks),
            "slashed_nano": sum(b.slashed for b in result.blocks),
            "max_conservation_drift_nano": drift,
        }
        return result

    def _sample_block(self, block: Block) -> None:
        """Record the block's closing price discrepancy and largest deviation."""
        prices = snapshot_prices(self.state.pools.values())
        block.discrepancy = cumulative_discrepancy(prices, self._discrepancy_pairs)
        block.max_abs_deviation = max_relative_deviation(prices, self._deviation_pairs)

    def _settle_epoch(
        self, epoch: list[Block], selected: SearcherProposal | None
    ) -> RewardLedger | None:
        """Distribute the epoch profit pool (autobalancer mode only)."""
        cfg = self.config
        if self.mode != MODE_AUTO:
            return None
        records = [r for b in epoch for r in b.balancer_executed]
        ledger = build_ledger(
            cfg.reward_weights, measure_contribution(records, cfg.venue_ids)
        )
        # a positive pool implies commits, which imply a selected proposal
        searcher_cut = ledger.payouts[GROUP_SEARCHERS]
        if selected is not None and searcher_cut > 0:
            self.state.transfer(
                TREASURY, searcher_account(selected.searcher_id), NUMERAIRE, searcher_cut
            )
        for venue_id, amount in sorted(ledger.marketplace_payouts.items()):
            if amount > 0:
                self.state.transfer(
                    TREASURY, marketplace_account(venue_id), NUMERAIRE, amount
                )
        return ledger


def run_scenario(
    config: ScenarioConfig, seed: int | None = None, mode: str | None = None
) -> RunResult:
    """Convenience wrapper: one deterministic run of a scenario.

    Module errors abort as SimulationAbort carrying the epoch/block
    coordinate; the original exception rides along as __cause__.
    """
    run = SimulationRun(
        config,
        seed=config.seeds[0] if seed is None else seed,
        mode=config.mode if mode is None else mode,
    )
    try:
        return run.execute()
    except Exception as exc:
        block = run.state.block_height
        epoch = block // config.epoch_length if config.epoch_length else 0
        raise SimulationAbort(epoch, block, exc) from exc


def run_baseline_comparison(config: ScenarioConfig, modes: list[str], seeds: list[int]) -> dict:
    """Run the same seeded scenario under each mode and tabulate outcomes.

    Per mode: time-averaged discrepancy, captured value (profit retained
    by the network), and leaked value (profit taken by the external
    arbitrageur). User flow is a function of the seed alone, so the
    user-phase event logs match across modes pair by pair.
    """
    if not seeds:
        raise ValueError("comparison requires at least one seed")
    bad = set(modes) - set(MODES)
    if bad:
        raise ValueError(f"unknown modes: {sorted(bad)}")

    per_mode: dict[str, dict] = {}
    for mode in modes:
        rows = []
        for seed in seeds:
            result = run_scenario(config, seed=seed, mode=mode)
            rows.append(
                {
                    "seed": seed,
                    "time_avg_discrepancy": result.totals["mean_discrepancy"],
                    "captured": result.totals["captured"],
                    "leaked": result.totals["leaked"],
                    "max_abs_deviation": result.totals["max_abs_deviation"],
                    "user_flow_digest": result.user_flow_digest,
                }
            )
        n = len(rows)
        per_mode[mode] = {
            "per_seed": rows,
            "mean_time_avg_discrepancy": ordered_sum(r["time_avg_discrepancy"] for r in rows) / n,
            "mean_captured": ordered_sum(r["captured"] for r in rows) / n,
            "mean_leaked": ordered_sum(r["leaked"] for r in rows) / n,
        }
    return {
        "modes": list(modes),
        "seeds": list(seeds),
        "per_mode": per_mode,
    }
