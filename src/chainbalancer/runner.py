"""Run orchestration: epochs, blocks, rewards, and report assembly.

One run is a pure function of (scenario config, seed, mode). Independent
RNG streams drive user flow, searcher noise, producer honesty, and fault
injection, so the user flow is identical across modes for the same seed.

`SimulationRun.execute` takes the user flow (or draws it), then drives three
steps, whose shared values live on the run so that each can be called alone:
    _open_epoch   builds and scores the proposals (none in off mode)
    _step_block   runs one block: both phases, the producer's order, fees and
                  slashing, then the sample, conservation check and replay capture
    _close_epoch  settles the epoch, updates credibility, returns its row

Modes:
    off           no balancer phase; the no-intervention baseline
    autobalancer  profits accrue to the treasury and are redistributed
    external      the same arbitrage runs, but profits leave the protocol
                  (the external account is the beneficiary; nothing redistributed)
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
)
from .config import MODES, ScenarioConfig
from .market import NUMERAIRE, SwapDirection, snapshot_prices
from .metrics import (
    cumulative_discrepancy,
    deviation_pairs,
    discrepancy_pairs,
    epoch_constraint_check,
    max_relative_deviation,
    ordered_sum,
    performance_cost_psi,
    scalarized_objective,
)
from .rewards import (
    GROUP_SEARCHERS,
    RewardLedger,
    apply_slashing,
    build_ledger,
    exact_fraction,
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
# the digest's text of each direction; a dict lookup, not the enum's `.value` property
_DIRECTION_TEXT = {direction: direction.value for direction in SwapDirection}


class SimulationAbort(RuntimeError):
    """A module error surfaced mid-run, tagged with its run (mode and seed) and
    its coordinate: the epoch, the step ("open", "block" or "close") and, in a
    block step, the block."""

    def __init__(
        self, mode: str, seed: int, epoch: int, step: str, block: int | None, cause: Exception | str
    ):
        at = f", block {block}" if step == "block" else f" ({step})"
        super().__init__(f"aborted in {mode} mode, seed {seed}, at epoch {epoch}{at}: {cause}")
        self.mode, self.seed, self.epoch, self.step, self.block = mode, seed, epoch, step, block
        self.cause = str(cause)

    def __reduce__(self):  # copy and pickle rebuild the abort from its fields and cause text
        return type(self), (self.mode, self.seed, self.epoch, self.step, self.block, self.cause)


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
        cfg, weights = self.config, self.config.objective_weights
        block_rows = []
        for block in self.blocks:
            util, profit = block.utilization, to_units(block.profit)
            user_gas = len(block.user_txs) * cfg.gas_per_user_swap
            balancer_gas = len(block.balancer_executed) * cfg.threshold.gas_per_tx
            block_rows.append(
                {
                    "block": block.index,
                    "discrepancy": block.discrepancy,
                    "utilization": util,
                    "psi": block.psi,
                    "scalarized": scalarized_objective(block.discrepancy, util, weights),
                    "captured_profit": profit if self.mode == MODE_AUTO else 0.0,
                    "leaked_profit": profit if self.mode == MODE_EXTERNAL else 0.0,
                    "max_abs_deviation": block.max_abs_deviation,
                    "work": user_gas + balancer_gas,
                    "user_gas": user_gas,
                    "balancer_gas": balancer_gas,
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


def draw_user_flow(config: ScenarioConfig, seed: int) -> list[list[UserTx]]:
    """The run's user txs per block: a function of the seed alone, shared by every mode."""
    n_blocks = config.epochs * config.epoch_length
    return generate_user_flow(Random(f"{seed}:user"), config.user_flow, n_blocks, config.venue_assets)


def _genesis_state(config: ScenarioConfig) -> ChainState:
    pools = {key: pool.clone() for key, pool in config.pools.items()}
    state = ChainState(pools, config.reference_venue_id, config.threshold)
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
        self.rng_searchers = {
            p.searcher_id: Random(f"{seed}:searcher:{p.searcher_id}")
            for p in config.searcher_profiles
        }
        self.rng_producer = Random(f"{seed}:producer")
        self.rng_chaos = Random(f"{seed}:chaos")
        self.state = _genesis_state(config)
        self.state.beneficiary = EXTERNAL if mode == MODE_EXTERNAL else TREASURY
        self.genesis_totals = self.state.asset_totals()
        # the pool set is fixed for the run, so the snapshot's index plan is too
        keys = list(self.state.pools)
        self._discrepancy_pairs = discrepancy_pairs(keys)
        self._deviation_pairs = deviation_pairs(keys, config.reference_venue_id)
        self.credibility = {p.searcher_id: 1.0 for p in config.searcher_profiles}
        self.gamma = exact_fraction(config.gamma)  # the producer's share of gas fees
        rate, chaos = config.forced_revert_rate, self.rng_chaos
        self.injector = (lambda tpl: chaos.random() < rate) if rate > 0 else None
        self.carry: list[UserTx] = []
        self.digest = hashlib.sha256()
        self.drift = 0
        # (closing state, balancer room) of the blocks governance replays
        self.recent: deque = deque(maxlen=config.governance_window)
        # where the run is, for an abort's coordinate
        self.epoch, self.step = 0, "open"

    def execute(self, flow: list[list[UserTx]] | None = None) -> RunResult:
        """Run every epoch on `flow`, the seed's user flow, drawn here when not given."""
        cfg = self.config
        result = RunResult(config=cfg, seed=self.seed, mode=self.mode)
        if flow is None:
            flow = draw_user_flow(cfg, self.seed)
        result.generated_txs = sum(len(txs) for txs in flow)
        for epoch_index in range(cfg.epochs):
            self.epoch, self.step = epoch_index, "open"
            proposals, scores, selected = self._open_epoch()
            active_set = selected.ordered_txs if selected else []
            self.step = "block"
            epoch = [
                self._step_block(flow[self.state.block_height], active_set)
                for _ in range(cfg.epoch_length)
            ]
            result.blocks += epoch
            self.step = "close"
            row, ledger = self._close_epoch(epoch_index, epoch, proposals, scores, selected)
            result.epoch_rows.append(row)
            result.ledgers.append(ledger)
        result.final_state = self.state
        result.pending_at_end = len(self.carry)
        result.user_flow_digest = self.digest.hexdigest()
        blocks = result.blocks
        committed = sum(b.profit for b in blocks)
        captured_total = committed if self.mode == MODE_AUTO else 0
        leaked_total = committed if self.mode == MODE_EXTERNAL else 0
        n = max(1, len(blocks))
        result.totals = {
            "captured": to_units(captured_total),
            "captured_nano": captured_total,
            "leaked": to_units(leaked_total),
            "leaked_nano": leaked_total,
            "mean_discrepancy": ordered_sum(b.discrepancy for b in blocks) / n,
            "mean_utilization": ordered_sum(b.utilization for b in blocks) / n,
            "max_abs_deviation": max((b.max_abs_deviation for b in blocks), default=0.0),
            "producer_fees_nano": sum(b.producer_fee for b in blocks),
            "slashed_nano": sum(b.slashed for b in blocks),
            "max_conservation_drift_nano": self.drift,
        }
        return result

    def _open_epoch(self) -> tuple[list[SearcherProposal], dict, SearcherProposal | None]:
        """Build and score the proposals; off mode builds none and draws nothing."""
        cfg = self.config
        if self.mode == MODE_OFF:
            return [], {}, None
        # the closing state proxies the epoch's expected state; proposals only
        # read it (their replays run on copies)
        rngs = self.rng_searchers
        proposals = [
            build_proposal(p, self.state, cfg.governance, rngs[p.searcher_id])
            for p in cfg.searcher_profiles
        ]
        replays = list(self.recent) or [(self.state, cfg.capacity // cfg.threshold.gas_per_tx)]
        selected, scores = evaluate_proposals(proposals, replays, self.credibility)
        return proposals, scores, selected

    def _step_block(self, arrivals: list[UserTx], active_set: list) -> Block:
        """Run the next block on the carried txs plus `arrivals` and return it."""
        cfg, state = self.config, self.state
        height = state.block_height
        gas = cfg.gas_per_user_swap
        user = execute_block_user_phase(state, self.carry + arrivals, cfg.capacity // gas)
        self.carry = user.carried
        block = Block(height, user_txs=user.applied)
        self.digest.update(
            "".join(
                f"{height}|{tx.id}|{tx.venue_id}|{tx.asset}|"
                f"{_DIRECTION_TEXT[tx.direction]}|{tx.amount_in}|{gas}|{status}\n"
                for tx, status in user.events
            ).encode()
        )
        user_gas = len(user.applied) * gas
        room = (cfg.capacity - user_gas) // cfg.threshold.gas_per_tx

        if active_set:
            order = list(range(len(active_set)))
            if cfg.dishonesty_rate > 0 and self.rng_producer.random() < cfg.dishonesty_rate:
                # Fisher-Yates, as shuffle() may change across versions
                for i in range(len(order) - 1, 0, -1):
                    j = int(self.rng_producer.random() * (i + 1))
                    order[i], order[j] = order[j], order[i]
            phase = execute_block_balancer_phase(
                state, [active_set[i] for i in order], room, self.injector
            )
            block.balancer_executed, block.balancer_skipped = phase.executed, phase.skipped
            # the escrow holds the phase's gas fees: gamma to the producer, the rest burned
            fees = state.balance(FEE_ESCROW, NUMERAIRE)
            block.producer_fee = pay_producer(fees, self.gamma)
            if fees:
                state.transfer(FEE_ESCROW, PRODUCER, NUMERAIRE, block.producer_fee)
                state.transfer(FEE_ESCROW, FEE_BURN, NUMERAIRE, fees - block.producer_fee)
            block.slashed = apply_slashing(
                [(r.asset, r.venue_id) for r in phase.executed],
                [(t.asset, t.venue_id) for t in active_set],
                cfg.slash_penalty_multiple * block.producer_fee,
                state.balance(PRODUCER, NUMERAIRE),
            )
            if block.slashed:
                state.transfer(PRODUCER, TREASURY, NUMERAIRE, block.slashed)

        balancer_gas = len(block.balancer_executed) * cfg.threshold.gas_per_tx
        block.utilization = (user_gas + balancer_gas) / cfg.capacity
        block.psi = performance_cost_psi(block.utilization, cfg.objective_weights.u_star)
        self._sample_block(block)
        # conservation is checked after every block, not only at the end
        for asset, total in state.asset_totals().items():
            self.drift = max(self.drift, abs(total - self.genesis_totals.get(asset, 0)))
        # governance replays only the last `window` closing states before
        # each epoch boundary, and none in off mode
        blocks_to_boundary = cfg.epoch_length - 1 - height % cfg.epoch_length
        if self.mode != MODE_OFF and blocks_to_boundary < cfg.governance_window:
            self.recent.append((state.clone(), room))
        state.block_height += 1
        return block

    def _close_epoch(
        self, epoch_index: int, epoch: list[Block], proposals: list[SearcherProposal],
        scores: dict, selected: SearcherProposal | None,
    ) -> tuple[dict, RewardLedger | None]:
        """Settle the epoch and update the winner's credibility: (row, ledger)."""
        cfg, weights = self.config, self.config.objective_weights
        epoch_profit = sum(b.profit for b in epoch)
        ledger = self._settle_epoch(epoch, selected)
        if selected is not None:
            sid = selected.searcher_id
            self.credibility[sid] = update_credibility(
                self.credibility[sid], selected.profit_estimate, epoch_profit, cfg.beta
            )
        row = {
            "epoch": epoch_index,
            "selected_searcher": selected.searcher_id if selected else None,
            "active_set_size": len(selected.ordered_txs) if selected else 0,
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
            "constraint": epoch_constraint_check([b.psi for b in epoch], weights.delta_cap),
            "credibility": {str(sid): score for sid, score in sorted(self.credibility.items())},
        }
        return row, ledger

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
    config: ScenarioConfig,
    seed: int | None = None,
    mode: str | None = None,
    flow: list[list[UserTx]] | None = None,
) -> RunResult:
    """Convenience wrapper: one deterministic run of a scenario.

    `flow` is the seed's `draw_user_flow`, drawn by the run when not given;
    the run only reads it. Module errors abort as SimulationAbort carrying
    the mode, the seed and the epoch/step/block coordinate; the original
    exception rides along as __cause__.
    """
    run = SimulationRun(
        config,
        seed=config.seeds[0] if seed is None else seed,
        mode=config.mode if mode is None else mode,
    )
    try:
        return run.execute(flow)
    except Exception as exc:
        block = run.state.block_height if run.step == "block" else None
        raise SimulationAbort(run.mode, run.seed, run.epoch, run.step, block, exc) from exc


def run_baseline_comparison(config: ScenarioConfig, modes: list[str], seeds: list[int]) -> dict:
    """Run the same seeded scenario under each mode and tabulate outcomes.

    Per mode: time-averaged discrepancy, captured value (profit retained
    by the network), and leaked value (profit taken by the external
    arbitrageur). User flow is a function of the seed alone, so each seed's
    is drawn once and shared by its modes' runs, and the user-phase event
    logs match across modes pair by pair.
    """
    if not modes or not seeds:
        raise ValueError("comparison requires at least one mode and one seed")
    bad = set(modes) - set(MODES)
    if bad:
        raise ValueError(f"unknown modes: {sorted(bad)}")
    if len(set(modes)) < len(modes) or len(set(seeds)) < len(seeds):
        raise ValueError(f"comparison repeats a mode or seed: {list(modes)}, {list(seeds)}")

    rows_by_mode: dict[str, list[dict]] = {mode: [] for mode in modes}
    for seed in seeds:
        flow = draw_user_flow(config, seed)
        for mode in modes:
            result = run_scenario(config, seed=seed, mode=mode, flow=flow)
            rows_by_mode[mode].append(
                {
                    "seed": seed,
                    "time_avg_discrepancy": result.totals["mean_discrepancy"],
                    "captured": result.totals["captured"],
                    "leaked": result.totals["leaked"],
                    "max_abs_deviation": result.totals["max_abs_deviation"],
                    "user_flow_digest": result.user_flow_digest,
                }
            )
        del flow  # one seed's flow at a time
    per_mode: dict[str, dict] = {}
    for mode, rows in rows_by_mode.items():
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
