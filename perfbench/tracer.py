"""External span tracer for chainbalancer.

The tracer changes no file of the simulator. It rebinds the names of public
functions in the modules that imported them (``from .x import y`` copies the
binding, so the importer's name is the one to replace) and patches
``ChainState``/``RunResult``/``SimulationRun`` methods on their classes.
Private helpers such as ``_replay_once``, ``_sample_block`` and
``_settle_epoch`` stay unwrapped: their time lands in the public calls they
make and the remainder in the enclosing span's self time.

Each wrapped call records one span (name, start, end, parent) in flat arrays
held in memory; counters are read from the functions' return values.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import Counter
from pathlib import Path

# Optimal-sizing calls are attributed to the nearest enclosing span of these.
SIZING_CALLERS = ("chain.balancer_phase", "searchers.build_proposal", "searchers.evaluate_proposals")

# Revert reasons returned by arbitrage.execute_atomic.
REVERT_REASONS = (
    "gas_exhausted",
    "insufficient_lender",
    "insufficient_treasury",
    "insufficient_proceeds",
    "injected_fault",
    "degenerate_pool",
)

SETTLE_SPANS = (
    "rewards.measure_contribution",
    "rewards.build_ledger",
    "rewards.pay_producer",
    "rewards.apply_slashing",
)

# RunResult.report plus the writers the CLI calls; none of them nests another.
SERIALIZE_SPANS = (
    "report.run_report",
    "report.write_json",
    "report.write_blocks_csv",
    "report.write_comparison_json",
    "report.write_comparison_csv",
)


def _count_opportunity(counts: Counter, opp) -> None:
    if opp is None:
        counts["arbitrage.opportunity_from_deviation.none"] += 1


def _count_execution(counts: Counter, result) -> None:
    if result.committed:
        counts["arbitrage.execute_atomic.commits"] += 1
    else:
        counts["arbitrage.execute_atomic.reverts"] += 1
        counts[f"arbitrage.execute_atomic.reverts_{result.reason}"] += 1


def _count_balancer_phase(counts: Counter, phase) -> None:
    counts["chain.balancer_phase.templates_attempted"] += len(phase.executed) + len(phase.skipped)
    counts["chain.balancer_phase.commits"] += len(phase.executed)
    for skip in phase.skipped:
        if skip.kind == "revert":
            counts["chain.balancer_phase.reverts"] += 1
        else:
            counts[f"chain.balancer_phase.skips_{skip.reason}"] += 1


def _count_user_phase(counts: Counter, result) -> None:
    counts["chain.user_phase.txs_applied"] += len(result.applied)


def _count_slashing(counts: Counter, amount: int) -> None:
    if amount:
        counts["rewards.apply_slashing.slashes"] += 1


# (span name, "module" or "module.Class" holding the binding(s), attribute, observer)
TARGETS = (
    ("arbitrage.optimal_trade_size", ("arbitrage",), "optimal_trade_size", None),
    ("arbitrage.opportunity_from_deviation", ("arbitrage", "chain", "searchers"), "opportunity_from_deviation", _count_opportunity),
    ("arbitrage.execute_atomic", ("chain", "searchers"), "execute_atomic", _count_execution),
    ("chain.balancer_phase", ("runner",), "execute_block_balancer_phase", _count_balancer_phase),
    ("chain.user_phase", ("runner",), "execute_block_user_phase", _count_user_phase),
    ("chain.generate_user_flow", ("runner",), "generate_user_flow", None),
    ("searchers.build_proposal", ("runner",), "build_proposal", None),
    ("searchers.evaluate_proposals", ("runner",), "evaluate_proposals", None),
    ("state.clone", ("state.ChainState",), "clone", None),
    ("state.asset_totals", ("state.ChainState",), "asset_totals", None),
    ("market.snapshot_prices", ("runner",), "snapshot_prices", None),
    ("metrics.cumulative_discrepancy", ("runner",), "cumulative_discrepancy", None),
    ("rewards.measure_contribution", ("runner",), "measure_contribution", None),
    ("rewards.build_ledger", ("runner",), "build_ledger", None),
    ("rewards.pay_producer", ("runner",), "pay_producer", None),
    ("rewards.apply_slashing", ("runner",), "apply_slashing", _count_slashing),
    ("report.run_report", ("runner.RunResult",), "report", None),
    ("report.write_json", ("cli",), "write_json", None),
    ("report.write_blocks_csv", ("cli",), "write_blocks_csv", None),
    ("report.write_comparison_json", ("cli",), "write_comparison_json", None),
    ("report.write_comparison_csv", ("cli",), "write_comparison_csv", None),
    ("config.load_scenario", ("config", "cli"), "load_scenario", None),
    ("runner.execute", ("runner.SimulationRun",), "execute", None),
)


class Tracer:
    """Spans in flat arrays plus return-value counters; install/uninstall patches."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped so each call records a span (and feeds ``observe``)."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts = self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every binding in TARGETS inside the imported ``package``."""
        for name, owners, attr, observe in TARGETS:
            wrapped: dict[int, object] = {}
            for owner_path in owners:
                owner = package
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.wrap(name, original, observe)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        """Gzipped TSV: index, name, start_ns, end_ns, parent index (-1 at the root)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                handle.write(f"{i}\t{self.names[n]}\t{s}\t{e}\t{p}\n")

    def span_times(self) -> tuple[list[int], list[int]]:
        """Per span: (duration ns, self ns), self being duration minus direct children."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child_ns = [0] * len(durations)
        for duration, parent in zip(durations, self.span_parent):
            if parent >= 0:
                child_ns[parent] += duration
        return durations, [d - c for d, c in zip(durations, child_ns)]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(round(q * len(sorted_values), 6)))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``<module>.<function>.<stat>`` -> (value, unit)."""
    durations, self_ns = tracer.span_times()
    n_names = len(tracer.names)
    calls = [0] * n_names
    total = [0] * n_names
    own = [0] * n_names
    for name_id, duration, self_time in zip(tracer.span_name, durations, self_ns):
        calls[name_id] += 1
        total[name_id] += duration
        own[name_id] += self_time
    ids_by_name: dict[str, set[int]] = {}
    for i, n in enumerate(tracer.names):
        ids_by_name.setdefault(n, set()).add(i)

    def agg(name: str) -> tuple[int, float, float]:
        """(calls, inclusive s, self s), summed over every wrapper of ``name``."""
        ids = ids_by_name.get(name, ())
        return (
            sum(calls[i] for i in ids),
            sum(total[i] for i in ids) / 1e9,
            sum(own[i] for i in ids) / 1e9,
        )

    # sizing calls by nearest caller, and user-phase intervals within one run
    sizing_ids = ids_by_name.get("arbitrage.optimal_trade_size", set())
    caller_of = {i: n for n in SIZING_CALLERS for i in ids_by_name.get(n, ())}
    user_ids = ids_by_name.get("chain.user_phase", set())
    by_caller: Counter = Counter()
    last_user_start: dict[int, int] = {}
    intervals_ms: list[float] = []
    for index, name_id in enumerate(tracer.span_name):
        if name_id in sizing_ids:
            parent = tracer.span_parent[index]
            while parent >= 0 and tracer.span_name[parent] not in caller_of:
                parent = tracer.span_parent[parent]
            if parent >= 0:
                by_caller[caller_of[tracer.span_name[parent]]] += 1
        elif name_id in user_ids:
            parent = tracer.span_parent[index]
            start = tracer.span_start[index]
            if parent in last_user_start:
                intervals_ms.append((start - last_user_start[parent]) / 1e6)
            last_user_start[parent] = start
    intervals_ms.sort()

    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    ots_calls, _, ots_self = agg("arbitrage.optimal_trade_size")
    m["arbitrage.optimal_trade_size.calls"] = (ots_calls, "count")
    m["arbitrage.optimal_trade_size.self_s"] = (ots_self, "s")
    m["arbitrage.optimal_trade_size.us_per_call"] = (ots_self * 1e6 / ots_calls if ots_calls else 0.0, "us")
    for caller in SIZING_CALLERS:
        m[f"arbitrage.optimal_trade_size.calls_from_{caller.split('.')[1]}"] = (by_caller[caller], "count")

    opp_calls, _, _ = agg("arbitrage.opportunity_from_deviation")
    m["arbitrage.opportunity_from_deviation.calls"] = (opp_calls, "count")
    m["arbitrage.opportunity_from_deviation.none_ratio"] = (
        c["arbitrage.opportunity_from_deviation.none"] / opp_calls if opp_calls else 0.0,
        "ratio",
    )

    atomic_calls, atomic_s, _ = agg("arbitrage.execute_atomic")
    m["arbitrage.execute_atomic.calls"] = (atomic_calls, "count")
    m["arbitrage.execute_atomic.s"] = (atomic_s, "s")
    m["arbitrage.execute_atomic.commits"] = (c["arbitrage.execute_atomic.commits"], "count")
    m["arbitrage.execute_atomic.reverts"] = (c["arbitrage.execute_atomic.reverts"], "count")
    for reason in REVERT_REASONS:
        key = f"arbitrage.execute_atomic.reverts_{reason}"
        m[key] = (c[key], "count")

    bal_calls, bal_s, bal_self = agg("chain.balancer_phase")
    m["chain.balancer_phase.calls"] = (bal_calls, "count")
    m["chain.balancer_phase.s"] = (bal_s, "s")
    m["chain.balancer_phase.self_s"] = (bal_self, "s")
    for stat in ("templates_attempted", "commits", "skips_below_epsilon", "skips_unprofitable", "reverts"):
        m[f"chain.balancer_phase.{stat}"] = (c[f"chain.balancer_phase.{stat}"], "count")
    balancer_sizings = by_caller["chain.balancer_phase"]
    m["chain.balancer_phase.sizing_yield"] = (
        c["chain.balancer_phase.commits"] / balancer_sizings if balancer_sizings else 0.0,
        "ratio",
    )

    user_calls, user_s, _ = agg("chain.user_phase")
    applied = c["chain.user_phase.txs_applied"]
    m["chain.user_phase.calls"] = (user_calls, "count")
    m["chain.user_phase.s"] = (user_s, "s")
    m["chain.user_phase.txs_applied"] = (applied, "count")
    m["chain.user_phase.us_per_tx"] = (user_s * 1e6 / applied if applied else 0.0, "us")
    m["chain.generate_user_flow.s"] = (agg("chain.generate_user_flow")[1], "s")

    for name in ("searchers.build_proposal", "searchers.evaluate_proposals"):
        n_calls, inclusive, self_s = agg(name)
        m[f"{name}.calls"] = (n_calls, "count")
        m[f"{name}.s"] = (inclusive, "s")
        m[f"{name}.self_s"] = (self_s, "s")

    clone_calls, clone_s, _ = agg("state.clone")
    m["state.clone.calls"] = (clone_calls, "count")
    m["state.clone.s"] = (clone_s, "s")
    m["state.clone.us_per_call"] = (clone_s * 1e6 / clone_calls if clone_calls else 0.0, "us")
    for name in ("state.asset_totals", "market.snapshot_prices", "metrics.cumulative_discrepancy"):
        n_calls, inclusive, _ = agg(name)
        m[f"{name}.calls"] = (n_calls, "count")
        m[f"{name}.s"] = (inclusive, "s")

    m["rewards.settle.s"] = (sum(agg(name)[1] for name in SETTLE_SPANS), "s")
    m["rewards.apply_slashing.slashes"] = (c["rewards.apply_slashing.slashes"], "count")
    m["report.serialize.s"] = (sum(agg(name)[1] for name in SERIALIZE_SPANS), "s")
    m["config.load_scenario.s"] = (agg("config.load_scenario")[1], "s")

    _, exec_s, exec_self = agg("runner.execute")
    m["runner.execute.s"] = (exec_s, "s")
    m["runner.execute.self_s"] = (exec_self, "s")
    m["runner.block_interval_ms.p50"] = (_percentile(intervals_ms, 0.5), "ms")
    m["runner.block_interval_ms.p999"] = (_percentile(intervals_ms, 0.999), "ms")
    return m
