"""One benchmark child process: set up, run one CLI command, report.

Usage: ``python3 perfbench/worker.py '<spec json>'`` where the spec holds

    root         checkout root; the simulator is imported from <root>/src
    scenario     scenario file loaded during set-up
    argv         chainbalancer CLI arguments to time, or [] for a set-up probe
    out_dir      directory the command writes into
    report       name of the report file to hash inside out_dir
    trace        true to record spans with the external tracer
    spans_path   where a traced run writes its spans (gzipped TSV)
    result_path  where this process writes its result JSON

Set-up ends when ``load_scenario`` returns; the parent measures set-up from
just before it started this process to that instant (both clocks are
CLOCK_MONOTONIC, shared by all processes). The timed work is the command
itself: simulate, assemble the report, write the output files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _check_run(run_scenario, records: list[dict]):
    """Wrap run_scenario to record each run's output check and exact counts."""

    def checked(*args, **kwargs):
        result = run_scenario(*args, **kwargs)
        totals = result.totals
        records.append(
            {
                "drift": totals["max_conservation_drift_nano"],
                "generated": result.generated_txs,
                "applied": sum(len(b.user_txs) for b in result.blocks),
                "queued": result.pending_at_end,
                "blocks": len(result.blocks),
                "balancer_commits": sum(len(b.balancer_executed) for b in result.blocks),
                "balancer_skips": sum(len(b.balancer_skipped) for b in result.blocks),
                "captured_nano": totals["captured_nano"],
                "slashed_nano": totals["slashed_nano"],
            }
        )
        return result

    return checked


def main(spec: dict) -> dict:
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import chainbalancer
    from chainbalancer import cli, config, runner

    package_dir = Path(chainbalancer.__file__).resolve().parent
    if package_dir != (src / "chainbalancer").resolve():
        raise SystemExit(f"imported chainbalancer from {package_dir}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics  # perfbench/ is sys.path[0]

        tracer = Tracer()
        tracer.install(chainbalancer)
    config.load_scenario(spec["scenario"])
    out = {"setup_done": time.monotonic()}
    if not spec["argv"]:
        return out

    records: list[dict] = []
    check_hook = _check_run(runner.run_scenario, records)
    runner.run_scenario = check_hook  # compare imports it late from runner
    cli.run_scenario = check_hook
    out_dir = Path(spec["out_dir"])
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        out["exit_code"] = cli.main(spec["argv"])
    out["wall_s"] = time.perf_counter() - started
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["runs"] = records
    report = out_dir / spec["report"]
    out["report_sha256"] = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    out["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {k: list(v) for k, v in layer_metrics(tracer).items()}
        out["layers"]["report.serialize.bytes"] = [out["output_bytes"], "bytes"]
        out["spans"] = len(tracer.span_start)
        tracer.write_spans(Path(spec["spans_path"]))
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
