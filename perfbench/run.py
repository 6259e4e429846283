"""chainbalancer benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload scale-auto --seed 42 --seconds 35 --trace 0

Each timed run is a fresh child process (perfbench/worker.py) that imports
the simulator from ./src, loads the scenario (set-up) and then runs one
``chainbalancer run`` or ``compare`` command (the timed work). Runs repeat,
one at a time, while another run of the last one's length still fits in
--seconds (at least one run); extra set-up-only children make up at least
SETUP_SAMPLES set-up timings. Each command takes about half a second, so a
measurement holds dozens of them. The timings reported are the fastest
command and the fastest set-up: on a shared host, contended stretches slow
the same work 1.4-1.8x and come and go within a measurement, so the median
follows the host while the fastest of many short commands follows the
program (perfbench/README.md has the figures). Medians and quartiles are
printed beside them. With --trace 1 the benchmark makes TRACE_PAIRS
untraced and traced runs instead, alternating, and reports per-layer
metrics from the fastest traced run.

Every run is checked: zero conservation drift and generated == applied +
queued for every simulation, and one report sha256 for all runs of the
workload (traced runs included). The last line of standard output is one JSON
object; the exit code is 1 when a check failed and 2 when the simulator or a
scenario is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
TRACE_PAIRS = 5
CHILD_TIMEOUT_S = 170
SWEEP_SEEDS = 2
SWEEP_MODES = "off,autobalancer,external"
# Children hash strings alike, so dict and set layouts do not vary by process.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


@dataclass(frozen=True)
class Workload:
    scenario: str
    command: str  # "run" or "compare"
    mode: str = ""
    epochs: int | None = None  # run only the scenario's first ``epochs`` epochs

    def scenario_path(self) -> Path:
        """The scenario file the child loads, shortened to ``epochs`` when set."""
        if self.epochs is None:
            return ROOT / self.scenario
        import yaml

        source = ROOT / self.scenario
        derived = OUT / "scenarios" / f"{source.stem}-{self.epochs}-epochs.yaml"
        data = yaml.safe_load(source.read_text(encoding="utf-8"))
        data["blocks"]["epochs"] = self.epochs
        text = yaml.safe_dump(data, sort_keys=False)
        if not derived.exists() or derived.read_text(encoding="utf-8") != text:
            derived.parent.mkdir(parents=True, exist_ok=True)
            derived.write_text(text, encoding="utf-8")
        return derived

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        scenario = str(self.scenario_path())
        if self.command == "run":
            return ["run", scenario, "--seed", str(seed), "--mode", self.mode, "--out", str(out_dir)]
        seeds = ",".join(str(seed * SWEEP_SEEDS + i) for i in range(SWEEP_SEEDS))
        return ["compare", scenario, "--modes", SWEEP_MODES, "--seeds", seeds, "--out", str(out_dir)]

    @property
    def report(self) -> str:
        return "report.json" if self.command == "run" else "comparison.json"


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "scale-auto": Workload("scenarios/scale.yaml", "run", "autobalancer", epochs=4),
    "scale-off": Workload("scenarios/scale.yaml", "run", "off", epochs=20),
    "chaos-sweep": Workload("scenarios/chaos.yaml", "compare"),
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all (no simulator, no scenario)."""


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(workload: Workload, seed: int, tag: str, *, work: bool = True, trace: bool = False) -> dict:
    """Run one child (set-up only unless ``work``); its result plus ``setup_s``, or ``error``."""
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    spec = {
        "root": str(ROOT),
        "scenario": str(workload.scenario_path()),
        "argv": workload.argv(seed, out_dir) if work else [],
        "out_dir": str(out_dir),
        "report": workload.report,
        "trace": trace,
        "spans_path": str(OUT / f"{tag}-spans.tsv.gz"),
        "result_path": str(run_dir / "result.json"),
    }
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        result = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setup_s"] = result["setup_done"] - started
    return result


def check(result: dict, reference_sha: str | None) -> list[str]:
    """Output-check failures of one timed run (empty when it passed)."""
    if "error" in result:
        return [result["error"]]
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"command exited {result['exit_code']}")
    if not result["runs"]:
        problems.append("no simulation ran")
    for i, run in enumerate(result["runs"]):
        if run["drift"] != 0:
            problems.append(f"simulation {i}: conservation drift {run['drift']} nano")
        if run["generated"] != run["applied"] + run["queued"]:
            problems.append(
                f"simulation {i}: generated {run['generated']} != applied {run['applied']}"
                f" + queued {run['queued']}"
            )
    if result["report_sha256"] is None:
        problems.append("no report written")
    elif reference_sha is not None and result["report_sha256"] != reference_sha:
        problems.append(f"report sha256 {result['report_sha256']} != {reference_sha}")
    return problems


# Exact simulated outcomes, summed over a run's simulations: (record key, unit).
SIM_COUNTS = {
    "sim.blocks": ("blocks", "count"),
    "sim.user_applied": ("applied", "count"),
    "sim.balancer_commits": ("balancer_commits", "count"),
    "sim.balancer_skips": ("balancer_skips", "count"),
    "sim.captured_nano": ("captured_nano", "nano"),
    "sim.slashed_nano": ("slashed_nano", "nano"),
}


def sim_counts(result: dict) -> dict[str, int]:
    return {name: sum(run[key] for run in result["runs"]) for name, (key, _) in SIM_COUNTS.items()}


def summarize(values: list[float], pick=statistics.median) -> dict:
    """``pick(values)`` as the value, with median, quartiles, count and samples."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": pick(values), "median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _assess(name: str, results: list[dict]) -> tuple[list[list[str]], list[str], str | None]:
    """Check each run against the first passing run's digest.

    Returns the problems of each run, the failures as printable lines, and
    the digest.
    """
    digest = next((r["report_sha256"] for r in results if not check(r, None)), None)
    problems = [check(r, digest) for r in results]
    failures = [f"{name} run {i}: {msg}" for i, found in enumerate(problems) for msg in found]
    return problems, failures, digest


def _warm_up(name: str, seed: int) -> None:
    """Fill the bytecode cache before timing; a failure here means nothing can run."""
    probe = spawn(WORKLOADS[name], seed, f"{name}-warmup", work=False)
    if "error" in probe:
        raise SetupError(probe["error"])


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload, runs repeated for ``seconds``."""
    workload = WORKLOADS[name]
    _warm_up(name, seed)
    results: list[dict] = []
    began = time.monotonic()
    last_run_s = 0.0
    while not results or time.monotonic() - began + last_run_s <= seconds:
        run_began = time.monotonic()
        results.append(spawn(workload, seed, f"{name}-run"))
        last_run_s = time.monotonic() - run_began
    problems, failures, digest = _assess(name, results)
    good = [r for r, found in zip(results, problems) if not found]
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        probe = spawn(workload, seed, f"{name}-setup", work=False)
        if "error" in probe:
            raise SetupError(probe["error"])
        setups.append(probe["setup_s"])
    metrics = {"setup_s": (summarize(setups, min), "s")}
    if good:
        metrics["wall_s"] = (summarize([r["wall_s"] for r in good], min), "s")
        metrics["blocks_per_s"] = (
            summarize([sum(x["blocks"] for x in r["runs"]) / r["wall_s"] for r in good], max),
            "blocks/s",
        )
        metrics["peak_rss_mb"] = (summarize([r["peak_rss_kb"] / 1024 for r in good]), "MB")
    failed = len(results) - len(good)
    metrics["run_error_rate"] = ({"value": failed / len(results)}, "ratio")
    return {
        "attempted": len(results),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "report_sha256": digest,
        "sim": sim_counts(good[0]) if good else {},
    }


def measure_layers(name: str, seed: int) -> dict:
    """Per-layer metrics from the fastest of TRACE_PAIRS traced runs.

    Untraced and traced runs alternate; the overhead is the fastest traced
    run's ``wall_s`` over the fastest untraced run's.
    """
    workload = WORKLOADS[name]
    _warm_up(name, seed)
    untraced, traced = [], []
    for i in range(TRACE_PAIRS):
        untraced.append(spawn(workload, seed, f"{name}-untraced"))
        traced.append(spawn(workload, seed, f"{name}-traced-{i}", trace=True))
    problems, failures, digest = _assess(name, untraced + traced)
    metrics = {}
    fastest = None if failures else min(traced, key=lambda r: r["wall_s"])
    for i, result in enumerate(traced):  # keep the spans of the run reported
        spans = OUT / f"{name}-traced-{i}-spans.tsv.gz"
        if result is fastest:
            spans.replace(OUT / f"{name}-traced-spans.tsv.gz")
        else:
            spans.unlink(missing_ok=True)
    if fastest is not None:
        metrics = {k: ({"value": v}, unit) for k, (v, unit) in fastest["layers"].items()}
        metrics.update({k: ({"value": v}, SIM_COUNTS[k][1]) for k, v in sim_counts(fastest).items()})
        overhead = fastest["wall_s"] / min(r["wall_s"] for r in untraced)
        metrics["trace.overhead_ratio"] = ({"value": overhead}, "ratio")
    return {
        "attempted": len(problems),
        "failed": sum(1 for found in problems if found),
        "failures": failures,
        "metrics": metrics,
        "report_sha256": digest,
        "spans": fastest["spans"] if fastest else None,
    }


def _print_summary(name: str, seed: int, outcome: dict) -> None:
    print(f"== {name} (seed {seed}) ==")
    for metric, (stats, unit) in sorted(outcome["metrics"].items()):
        line = f"  {metric:<58} {stats['value']:>16.6f} {unit}"
        if "n" in stats:
            line += f"  [median {stats['median']:.6f}, q1 {stats['q1']:.6f}, q3 {stats['q3']:.6f}, n={stats['n']}]"
        print(line)
    print(f"  report sha256 {outcome['report_sha256']}")
    for key, value in sorted(outcome.get("sim", {}).items()):
        print(f"  {key} {value}")
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = ["src/chainbalancer/__init__.py", *sorted({w.scenario for w in WORKLOADS.values()})]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            if args.trace:
                outcomes[name] = measure_layers(name, args.seed)
            else:
                outcomes[name] = measure(name, args.seed, args.seconds)
            _print_summary(name, args.seed, outcomes[name])
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    record = {"environment": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": outcomes}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    metrics = {
        (f"{name}.{metric}" if len(names) > 1 else metric): {"value": stats["value"], "unit": unit}
        for name, outcome in outcomes.items()
        for metric, (stats, unit) in outcome["metrics"].items()
        if metric != "run_error_rate"  # carried by "failed" / "attempted"
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
