"""Tests of the benchmark itself, on small scenarios.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from tracer import Tracer, layer_metrics

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_RUN = run.Workload("scenarios/baseline.yaml", "run", "autobalancer")
TINY_SWEEP = run.Workload("scenarios/chaos.yaml", "compare")


@pytest.fixture
def small_sweep(monkeypatch):
    monkeypatch.setattr(run, "SWEEP_SEEDS", 2)


@pytest.mark.parametrize("workload", [TINY_RUN, TINY_SWEEP], ids=["run", "compare"])
def test_traced_report_is_byte_identical(workload, small_sweep):
    untraced = run.spawn(workload, 3, "test-untraced")
    traced = run.spawn(workload, 3, "test-traced", trace=True)
    assert run.check(untraced, None) == []
    assert run.check(traced, untraced["report_sha256"]) == []
    assert traced["spans"] > 0


def test_self_time_never_exceeds_inclusive_time(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import chainbalancer
    from chainbalancer import cli

    original = chainbalancer.runner.execute_block_balancer_phase
    tracer = Tracer()
    tracer.install(chainbalancer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(run.ROOT / TINY_RUN.scenario), "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert chainbalancer.runner.execute_block_balancer_phase is original

    durations, self_ns = tracer.span_times()
    assert durations and all(0 <= own <= total for total, own in zip(durations, self_ns))
    metrics = layer_metrics(tracer)
    for name, (value, _) in metrics.items():
        if name.endswith(".self_s"):
            inclusive = name[: -len("self_s")] + "s"
            if inclusive in metrics:
                assert value <= metrics[inclusive][0]
    assert metrics["chain.balancer_phase.calls"][0] > 0


def test_emitted_metric_names_match_benchmark(monkeypatch, small_sweep):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY_RUN)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    end_to_end = run.measure("tiny", 5, 0)
    per_layer = run.measure_layers("tiny", 5)
    assert end_to_end["failed"] == 0 and per_layer["failed"] == 0

    emitted_e2e = {name: unit for name, (_, unit) in end_to_end["metrics"].items()}
    emitted_layers = {name: unit for name, (_, unit) in per_layer["metrics"].items()}
    for name in [*emitted_e2e, *emitted_layers]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == {k: v for k, v in emitted_e2e.items() if k != "run_error_rate"}
    assert declared_layers == emitted_layers


def test_scale_workloads_shorten_only_the_epoch_count():
    import yaml

    for name in ("scale-auto", "scale-off"):
        workload = run.WORKLOADS[name]
        derived = yaml.safe_load(workload.scenario_path().read_text(encoding="utf-8"))
        source = yaml.safe_load((run.ROOT / workload.scenario).read_text(encoding="utf-8"))
        assert derived["blocks"]["epochs"] == workload.epochs < source["blocks"]["epochs"]
        derived["blocks"]["epochs"] = source["blocks"]["epochs"]
        assert derived == source


def test_check_flags_each_output_failure():
    good_run = {"drift": 0, "generated": 10, "applied": 7, "queued": 3}
    result = {"exit_code": 0, "runs": [good_run], "report_sha256": "a"}
    assert run.check(result, "a") == []
    assert len(run.check({**result, "exit_code": 2}, "a")) == 1
    assert len(run.check({**result, "runs": [{**good_run, "drift": 1}]}, "a")) == 1
    assert len(run.check({**result, "runs": [{**good_run, "queued": 2}]}, "a")) == 1
    assert len(run.check(result, "b")) == 1
    assert run.check({"error": "boom"}, None) == ["boom"]


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-off", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
