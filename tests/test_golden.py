"""Golden digests: report.json bytes pinned per (scenario, mode).

Each case runs a shipped scenario at its first seed and hashes the
report exactly as the CLI writes it. A change that moves a digest
changes results; re-pin it only with the reason recorded in CHANGES.md.

The scale cases run `scale.yaml` cut to its first 4 epochs: 48 pools,
flash-loan-only funding and a 24-template cap, a shape neither baseline
nor chaos has. The congested cases run `baseline.yaml` with blocks that
hold 8 user swaps and users who hold 200 units each, so the user phase
fills blocks and defers txs it cannot fund, which no shipped scenario does.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from chainbalancer import load_scenario, run_scenario
from chainbalancer.config import from_dict
from chainbalancer.report import write_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("baseline", "off"): "6f6f9141336c069953204892a7f2552f5491880b5e22d72fd791619c553d2b85",
    ("baseline", "autobalancer"): "1f82a2d76aaa0074220438b68418239937dfcffe8b586c95836f35c804d76014",
    ("baseline", "external"): "bd7bb718c2937f94bf8b19441218f6295b841d6de4ce1b67851f019a21451ef2",
    ("chaos", "off"): "b24c7ba8c7c8aa17fecf0a6a098f15c6a5033d48c908597e91da2faaa0dd336e",
    ("chaos", "autobalancer"): "6599b157125253388c718ae924257311f257eb1c15778e01388f45e13adea1cf",
    ("chaos", "external"): "696157f00571d1f3932e93217d0d7f94e94d705a9e940ffaf77c11248033c879",
    ("scale", "off"): "f233ef3b9fa533357356999dbd6ad3edf894daec66be6969cec08afc1ff5fb2a",
    ("scale", "autobalancer"): "df14807af10bce977961bb5cc3bedb6ad9c9c7e5e9485c01390fb2dc941cd68e",
    ("scale", "external"): "2c940ef985ebb9721c07296dcf00614d87be788c543e7189bef68ea24aa8a4bc",
    ("congested", "off"): "f6d57ac6c4a8dbaedfd759715721f2695dc5ea00116438edd8cace085bd03e86",
    ("congested", "autobalancer"): "953870f1ee12b4c1c4394cf454bfeb828fa599d91a6ec08f434f1fb78773f727",
    ("congested", "external"): "c137f1251245cdf4b5daf3a4423547c390fa67931e0e4a8d2099db5f151e82b7",
}
# Autobalancer digests with `reward_ledger`'s former constant
# `"diverted_to_treasury": false` key put back: the bytes the code from
# before the key's removal writes on the same draws.
WITH_DIVERTED_KEY = {
    "baseline": "597f81ae668679274af5a110bcb29bfe0905d3e2726d8678fdea54b0484b81d6",
    "chaos": "66555891dae8e45694253677a719fef0ffd2d441d8fa922694e16ffac1c9a05f",
    "scale": "5151966e8df2a500e4303f71d2d2699cabe98d5eb76224520528e03496af9747",
}
SCALE_EPOCHS = 4
CONGESTED_CAPACITY = 174_000  # 8 user swaps of 21,000 gas
CONGESTED_ENDOWMENT = 200.0


def golden_config(scenario):
    if scenario in ("baseline", "chaos"):
        return load_scenario(SCENARIOS / f"{scenario}.yaml")
    source = "scale" if scenario == "scale" else "baseline"
    data = yaml.safe_load((SCENARIOS / f"{source}.yaml").read_text(encoding="utf-8"))
    if scenario == "scale":
        data["blocks"]["epochs"] = SCALE_EPOCHS
    else:
        data["blocks"]["capacity"] = CONGESTED_CAPACITY
        data["user_flow"]["endowment"] = CONGESTED_ENDOWMENT
    return from_dict(data)


@pytest.mark.parametrize("scenario,mode", sorted(GOLDEN))
def test_report_digest_pinned(scenario, mode, tmp_path):
    config = golden_config(scenario)
    result = run_scenario(config, seed=config.seeds[0], mode=mode)
    path = write_json(result.report(), tmp_path / "report.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(scenario, mode)]


@pytest.mark.parametrize("scenario", sorted(WITH_DIVERTED_KEY))
def test_only_the_diverted_key_left_the_report(scenario, tmp_path):
    config = golden_config(scenario)
    report = run_scenario(config, seed=config.seeds[0], mode="autobalancer").report()
    ledgers = [row["reward_ledger"] for row in report["epochs"] if row["reward_ledger"]]
    assert ledgers
    for ledger in ledgers:
        ledger["diverted_to_treasury"] = False
    path = write_json(report, tmp_path / "report.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WITH_DIVERTED_KEY[scenario]


def test_one_config_reruns_like_fresh_configs():
    """Runs clone the config's genesis pools: reusing one config across modes
    gives the reports of fresh configs and leaves its reserves as loaded."""
    config = golden_config("baseline")
    loaded = {key: (p.reserve_base, p.reserve_quote) for key, p in config.pools.items()}
    for mode in ("off", "autobalancer", "external", "autobalancer"):
        fresh = run_scenario(golden_config("baseline"), mode=mode).report()
        assert run_scenario(config, mode=mode).report() == fresh
    assert {key: (p.reserve_base, p.reserve_quote) for key, p in config.pools.items()} == loaded
