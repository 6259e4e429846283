"""Scenario loading, validation reporting, report files, CLI exit codes."""

import copy
import json
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbalancer import ValidationError, load_scenario, run_scenario
from chainbalancer.cli import main
from chainbalancer.config import from_dict
from chainbalancer.report import (
    dumps_report,
    write_blocks_csv,
    write_json,
)

from conftest import baseline_raw

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MODES_RULE = "modes must be one or more distinct names from off,autobalancer,external"
# the `seeds` row's rule, which the scenario file, `--seed` and `--seeds` all follow
SEEDS_ROW_RULE = "a non-empty list of distinct integers in [0, 2^63 - 1]"
SEEDS_RULE = f"seeds must be {SEEDS_ROW_RULE}"


def minimal_raw():
    return {
        "assets": {"count": 2},
        "pools": [
            {"venue": 0, "asset": 1, "reserve_asset": 1000.0, "reserve_numeraire": 1000.0, "reference": True},
            {"venue": 1, "asset": 1, "reserve_asset": 1000.0, "reserve_numeraire": 1000.0},
        ],
    }


class TestLoadScenario:
    def test_minimal_config_fills_defaults(self):
        config = from_dict(minimal_raw())
        assert config.threshold.epsilon == 0.003
        assert config.threshold.flash_fee == 0.0009
        assert config.objective_weights.u_star == 0.9
        assert config.beta == 0.8
        assert config.gamma == 0.5
        assert config.capacity == 1_000_000
        assert config.epoch_length == 20
        assert len(config.searcher_profiles) == 4
        assert config.seeds == [42]
        assert config.mode == "autobalancer"

    def test_two_reference_venues_named_in_error(self):
        raw = minimal_raw()
        raw["pools"].append(
            {"venue": 2, "asset": 1, "reserve_asset": 10.0, "reserve_numeraire": 10.0, "reference": True}
        )
        with pytest.raises(ValidationError) as err:
            from_dict(raw)
        [msg] = [v for v in err.value.violations if "reference" in v]
        assert "0" in msg and "2" in msg

    def test_omega_simplex_violation(self):
        # below and above the simplex; build_ledger relies on this check
        for treasury, total in ((0.1, "0.9"), (0.5, "1.3")):
            raw = minimal_raw()
            raw["weights"] = {"omega": {"searchers": 0.4, "marketplaces": 0.4, "treasury": treasury}}
            with pytest.raises(ValidationError) as err:
                from_dict(raw)
            assert err.value.violations == [f"weights.omega: weights sum to {total}, not 1"]

    def test_gamma_domain_open(self):
        for gamma in (0.0, 1.0, -0.1, 1.5):
            raw = minimal_raw()
            raw["weights"] = {"gamma": gamma}
            with pytest.raises(ValidationError) as err:
                from_dict(raw)
            assert err.value.violations == [
                f"weights.gamma: must be a number in (0, 1), got {gamma!r}"
            ]

    def test_all_violations_reported_at_once(self):
        raw = minimal_raw()
        raw["weights"] = {"omega": {"searchers": 0.5, "marketplaces": 0.5, "treasury": 0.5}}
        raw["threshold"] = {"epsilon": -1}
        raw["mode"] = "warp"
        raw["seeds"] = []
        with pytest.raises(ValidationError) as err:
            from_dict(raw)
        text = "\n".join(err.value.violations)
        assert "omega" in text and "epsilon" in text and "mode" in text and "seeds" in text
        assert len(err.value.violations) >= 4

    def test_missing_reference_asset_coverage(self):
        raw = minimal_raw()
        raw["assets"]["count"] = 3
        raw["pools"].append({"venue": 1, "asset": 2, "reserve_asset": 10.0, "reserve_numeraire": 10.0})
        with pytest.raises(ValidationError) as err:
            from_dict(raw)
        assert any("absent from reference" in v for v in err.value.violations)

    def test_failed_pool_row_hides_reference_coverage(self):
        """A pool whose venue failed its own row does not make its healthy
        siblings look uncovered by the reference venue."""
        raw = minimal_raw()
        raw["assets"]["count"] = 3
        raw["pools"] += [
            {"venue": 0, "asset": 2, "reserve_asset": 10.0, "reserve_numeraire": 10.0, "reference": True},
            {"venue": 1, "asset": 2, "reserve_asset": 10.0, "reserve_numeraire": 10.0},
        ]
        raw["pools"][2]["venue"] = 1.5
        with pytest.raises(ValidationError) as err:
            from_dict(raw)
        assert err.value.violations == [
            "pools[2].venue: must be an integer in [-2^63, 2^63 - 1], got 1.5"
        ]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(minimal_raw()))
        config = load_scenario(path)
        assert config.reference_venue_id == 0

    def test_gas_exceeding_capacity(self):
        raw = minimal_raw()
        raw["blocks"] = {"capacity": 10_000}
        with pytest.raises(ValidationError) as err:
            from_dict(raw)
        assert any("exceeds block capacity" in v for v in err.value.violations)

    def test_malformed_sections_are_validation_errors(self):
        for raw in ({"blocks": 5}, {"pools": "oops"}, {"pools": [3]}, {"seeds": 7}):
            with pytest.raises(ValidationError):
                from_dict({**minimal_raw(), **raw})

    @pytest.mark.parametrize("text", ["[]", "false", "0", "''", "[1]"])
    def test_a_top_level_that_is_not_a_mapping_is_named(self, tmp_path, text):
        path = tmp_path / "scenario.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ValidationError) as err:
            load_scenario(path)
        assert err.value.violations == [f"top level: must be a mapping, got {yaml.safe_load(text)!r}"]

    def test_an_empty_file_is_an_empty_mapping(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("")
        with pytest.raises(ValidationError) as err:
            load_scenario(path)
        assert err.value.violations[0].startswith("pools: must be a non-empty list")

    def test_bad_venue_weight_keys(self):
        raw = minimal_raw()
        raw["user_flow"] = {"venue_weights": {"abc": 1.0, "1": -2.0}}
        with pytest.raises(ValidationError) as err:
            from_dict(raw)
        text = "\n".join(err.value.violations)
        assert "not a venue id" in text and "non-negative" in text


class TestRunShapes:
    def test_zero_epochs_empty_report(self):
        config = from_dict({**minimal_raw(), "blocks": {"epochs": 0}})
        result = run_scenario(config)
        report = result.report()
        assert report["blocks"] == [] and report["epochs"] == []

    def test_unknown_mode_is_rejected_before_the_run(self, baseline_config):
        with pytest.raises(ValueError, match="^unknown mode 'warp'$"):
            run_scenario(baseline_config, mode="warp")

    def test_block_count_matches_config(self, baseline_config):
        result = run_scenario(baseline_config, seed=1, mode="off")
        assert len(result.report()["blocks"]) == 100

    def test_identical_runs_byte_identical_reports(self, baseline_config):
        a = dumps_report(run_scenario(baseline_config, seed=3).report())
        b = dumps_report(run_scenario(baseline_config, seed=3).report())
        assert a == b

    def test_header_carries_provenance(self, baseline_config):
        report = run_scenario(baseline_config, seed=3).report()
        assert report["header"]["seed"] == 3
        assert len(report["header"]["config_hash"]) == 64

    def test_reconciliation_counts(self, baseline_config):
        result = run_scenario(baseline_config, seed=5, mode="autobalancer")
        rec = result.report()["final"]["reconciliation"]
        assert rec["generated"] == rec["applied"] + rec["queued"]

    def test_module_errors_abort_with_coordinates(self, baseline_config, monkeypatch):
        import chainbalancer.runner as runner_mod
        from chainbalancer import SimulationAbort

        original = runner_mod.execute_block_user_phase
        calls = {"n": 0}

        def sabotage(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 7:
                raise KeyError("synthetic pool failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "execute_block_user_phase", sabotage)
        with pytest.raises(SimulationAbort) as err:
            run_scenario(baseline_config, seed=1)
        assert err.value.block == 6
        assert err.value.epoch == 0  # 20-block epochs in the baseline
        assert "synthetic pool failure" in str(err.value)

    def test_settlement_errors_abort_at_the_closing_epoch(self, baseline_config, monkeypatch):
        """Settling epoch 0 ran past its last block, and read as epoch 1, block 20."""
        import chainbalancer.runner as runner_mod
        from chainbalancer import SimulationAbort

        def sabotage(*args, **kwargs):
            raise KeyError("synthetic ledger failure")

        monkeypatch.setattr(runner_mod, "build_ledger", sabotage)
        with pytest.raises(SimulationAbort) as err:
            run_scenario(baseline_config, seed=1, mode="autobalancer")
        abort = err.value
        coordinate = (abort.mode, abort.seed, abort.epoch, abort.step, abort.block)
        assert coordinate == ("autobalancer", 1, 0, "close", None)
        assert str(abort).startswith("aborted in autobalancer mode, seed 1, at epoch 0 (close): ")

    @pytest.mark.parametrize("twin", [copy.copy, lambda e: pickle.loads(pickle.dumps(e))],
                             ids=["copy", "pickle"])
    def test_an_abort_copies_and_pickles_with_its_coordinate(self, twin):
        from chainbalancer import SimulationAbort

        for abort in (SimulationAbort("off", 1, 0, "block", 6, ValueError("x")),
                      SimulationAbort("external", 2, 3, "close", None, KeyError("gone"))):
            fields = (abort.mode, abort.seed, abort.epoch, abort.step, abort.block)
            again = twin(abort)
            assert type(again) is SimulationAbort
            assert str(again) == str(abort)
            assert (again.mode, again.seed, again.epoch, again.step, again.block) == fields
            assert str(twin(again)) == str(abort)


# nested JSON data: empty containers, non-ASCII text, big ints, inf and nan,
# bools and None; keys all strings or (json coerces them) all ints
JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.dictionaries(st.integers(), children)
    ),
    max_leaves=40,
)

BLOCK_ROW = {"block": 0, "discrepancy": 0.5, "utilization": 0.25, "psi": 1.0, "captured_profit": 0.0}


class TestReportFiles:
    def test_json_round_trip(self, tmp_path, baseline_config):
        result = run_scenario(baseline_config, seed=4)
        report = result.report()
        path = write_json(report, tmp_path / "report.json")
        assert json.loads(path.read_text(encoding="utf-8")) == report

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(JSON_DATA)
    @example({"a": {}, "b": [], "c": [{}, []], "d": {"e": [1.5, float("inf"), float("nan"), None, True, "é"]}})
    def test_dumps_report_matches_json_dumps(self, data):
        assert dumps_report(data) == json.dumps(data, sort_keys=True, indent=2)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(JSON_DATA)
    @example({"a": {}, "b": [], "c": [{}, []], "d": {"e": [1.5, float("inf"), float("nan"), None, True, "é"]}})
    def test_write_json_bytes_match_json_dumps(self, data):
        # the file, not only the string: UTF-8, "\n" line ends, one final newline
        with tempfile.TemporaryDirectory() as directory:
            path = write_json(data, Path(directory) / "report.json")
            assert path.read_bytes() == (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()

    @pytest.mark.parametrize(
        "writer,name,good,bad,error",
        [
            (write_json, "report.json", {"a": [1]}, {"a": [{"b": 1}, {"c": [object()]}]}, TypeError),
            (write_blocks_csv, "blocks.csv", {"blocks": [BLOCK_ROW]}, {"blocks": [BLOCK_ROW, {"block": 1}]}, KeyError),
        ],
    )
    def test_a_failed_write_leaves_the_earlier_file(self, tmp_path, writer, name, good, bad, error):
        path = tmp_path / name
        with pytest.raises(error):
            writer(bad, path)
        assert list(tmp_path.iterdir()) == []
        writer(good, path)
        before = path.read_bytes()
        with pytest.raises(error):
            writer(bad, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        # the file is made under the umask like any other, not 0600 like mkstemp's
        plain = tmp_path / "plain"
        plain.touch()
        assert path.stat().st_mode == plain.stat().st_mode

    def test_a_warm_write_json_holds_a_small_share_of_the_file(self, tmp_path):
        """The writer streams: its peak allocation is far below the bytes it writes."""
        data = yaml.safe_load((SCENARIOS / "scale.yaml").read_text(encoding="utf-8"))
        data["blocks"]["epochs"] = 20
        config = from_dict(data)
        report = run_scenario(config, seed=config.seeds[0], mode="off").report()
        assert len(report["blocks"]) >= 1000
        path = write_json(report, tmp_path / "report.json")  # fills the encoder cache
        tracemalloc.start()
        try:
            write_json(report, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    def test_csv_shape(self, tmp_path, baseline_config):
        result = run_scenario(baseline_config, seed=4)
        report = result.report()
        path = write_blocks_csv(report, tmp_path / "blocks.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,discrepancy,utilization,psi,captured_profit"
        assert len(lines) == 1 + len(report["blocks"])


class TestCli:
    def _write(self, tmp_path, raw):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, minimal_raw())
        assert main(["validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_failure_exit_1(self, tmp_path, capsys):
        raw = minimal_raw()
        raw["mode"] = "nope"
        path = self._write(tmp_path, raw)
        assert main(["validate", path]) == 1
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_repeated_scenario_seed_exit_1(self, tmp_path, monkeypatch, capsys, command):
        raw = minimal_raw()
        raw["seeds"] = [7, 7]
        path = self._write(tmp_path, raw)

        def must_not_run(*args, **kwargs):
            raise AssertionError("no simulation may start")

        monkeypatch.setattr("chainbalancer.cli.run_scenario", must_not_run)
        monkeypatch.setattr("chainbalancer.cli.run_baseline_comparison", must_not_run)
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert main([command, path, *out]) == 1
        assert f"seeds: must be {SEEDS_ROW_RULE}, got [7, 7]" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.yaml")]) == 1

    def test_run_writes_outputs(self, tmp_path, capsys):
        raw = baseline_raw(blocks={"epochs": 2, "epoch_length": 5})
        path = self._write(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", path, "--seed", "9", "--mode", "autobalancer", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["header"]["seed"] == 9
        assert (out / "blocks.csv").exists()

    def test_compare_writes_outputs(self, tmp_path):
        raw = baseline_raw(blocks={"epochs": 2, "epoch_length": 5})
        path = self._write(tmp_path, raw)
        out = tmp_path / "cmp"
        code = main(
            ["compare", path, "--modes", "off,autobalancer", "--seeds", "1,2", "--out", str(out)]
        )
        assert code == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["modes"] == ["off", "autobalancer"]
        csv_lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 2 * 2

    def test_runtime_abort_exit_2(self, tmp_path, monkeypatch, capsys):
        path = self._write(tmp_path, minimal_raw())

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure at block 3")

        monkeypatch.setattr("chainbalancer.cli.run_scenario", boom)
        assert main(["run", path]) == 2
        assert "synthetic failure" in capsys.readouterr().err

    def test_compare_abort_names_the_failing_run(self, tmp_path, monkeypatch, capsys):
        import chainbalancer.runner as runner_mod

        raw = baseline_raw(blocks={"epochs": 2, "epoch_length": 5})
        path = self._write(tmp_path, raw)
        original = runner_mod.SimulationRun._open_epoch

        def sabotage(run):
            if (run.mode, run.seed, run.epoch) == ("autobalancer", 2, 1):
                raise KeyError("synthetic proposal failure")
            return original(run)

        monkeypatch.setattr(runner_mod.SimulationRun, "_open_epoch", sabotage)
        modes, seeds = "off,autobalancer,external", "1,2"
        out = str(tmp_path / "cmp")
        assert main(["compare", path, "--modes", modes, "--seeds", seeds, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "runtime abort: aborted in autobalancer mode, seed 2, at epoch 1 (open): "
            "'synthetic proposal failure'\n"
        )

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_unusable_out_fails_before_simulating(self, tmp_path, monkeypatch, capsys, command):
        path = self._write(tmp_path, minimal_raw())
        blocker = tmp_path / "file"
        blocker.write_text("")

        def must_not_run(*args, **kwargs):
            raise AssertionError("no simulation may start")

        monkeypatch.setattr("chainbalancer.cli.run_scenario", must_not_run)
        monkeypatch.setattr("chainbalancer.cli.run_baseline_comparison", must_not_run)
        assert main([command, path, "--out", str(blocker / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime abort: [Errno 20] Not a directory")
        assert "no simulation may start" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--modes", "off,warp", f"argument --modes: {MODES_RULE}, got 'off,warp'"),
            ("--modes", ",", f"argument --modes: {MODES_RULE}, got ','"),
            ("--modes", "off,off", f"argument --modes: {MODES_RULE}, got 'off,off'"),
            ("--seeds", "1,x", "argument --seeds: seeds must be comma-separated integers, got '1,x'"),
            ("--seeds", ",", f"argument --seeds: {SEEDS_RULE}, got ','"),
            ("--seeds", "-1", f"argument --seeds: {SEEDS_RULE}, got '-1'"),
            ("--seeds", "1,9223372036854775808",
             f"argument --seeds: {SEEDS_RULE}, got '1,9223372036854775808'"),
            ("--seeds", "7,7", f"argument --seeds: {SEEDS_RULE}, got '7,7'"),
        ],
    )
    def test_compare_bad_list_is_usage_error(self, tmp_path, monkeypatch, capsys, flag, value, message):
        path = self._write(tmp_path, minimal_raw())

        def must_not_run(*args, **kwargs):
            raise AssertionError("no simulation may start")

        monkeypatch.setattr("chainbalancer.cli.load_scenario", must_not_run)
        monkeypatch.setattr("chainbalancer.cli.run_baseline_comparison", must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", path, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: chainbalancer compare")
        assert message in err
        assert "runtime abort" not in err

    @pytest.mark.parametrize("seed", ["-1", str(2**63), "abc"])
    def test_run_bad_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, seed):
        """`--seed N` must pass the scenario's `seeds` rule as `[N]`."""
        path = self._write(tmp_path, minimal_raw())

        def must_not_run(*args, **kwargs):
            raise AssertionError("no simulation may start")

        monkeypatch.setattr("chainbalancer.cli.load_scenario", must_not_run)
        monkeypatch.setattr("chainbalancer.cli.run_scenario", must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", path, "--seed", seed])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: chainbalancer run")
        assert f"argument --seed: {SEEDS_RULE}, got '{seed}'" in err
        assert "runtime abort" not in err


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_scenario_parses_as_safe_load(path):
    """The fast loader yields the same config as the pure-Python safe loader."""
    config = load_scenario(path)
    reference = from_dict(yaml.safe_load(path.read_text(encoding="utf-8")))
    assert config.raw == reference.raw
    assert config.config_hash() == reference.config_hash()
