"""Golden digests: report.json bytes pinned per (scenario, mode).

Each case runs a shipped scenario at its first seed and hashes the
report exactly as the CLI writes it. A change that moves a digest
changes results; re-pin it only with the reason recorded in CHANGES.md.

The scale cases run `scale.yaml` cut to its first 4 epochs: 48 pools,
flash-loan-only funding and a 24-template cap, a shape neither baseline
nor chaos has.
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
    ("baseline", "off"): "3416baefabfe6a6eb58210b8884a6031ee120639f840557af9d4716c1a7ad2b5",
    ("baseline", "autobalancer"): "8c53114ca6cbf5a4429711da2bb5dc5991a6d437ef3f3027c895f550a23589c4",
    ("baseline", "external"): "40376de1470e670728a880328b748c19ee90e83619e76226e455b873dbcdb0c0",
    ("chaos", "off"): "cbcc113c4f7ea0d0f24f295ef7e7ab18a963baca3ffa35d89e9625ab53aa58e1",
    ("chaos", "autobalancer"): "3ae89fd3277011411b685f024c1e1cc0e943adef747af0da71d8f178747774ca",
    ("chaos", "external"): "a953a3d6202f3371a132335c84f7bd2363eeaa29a3fb1e4e3c06abbcb93f6444",
    ("scale", "off"): "43b8a680303f162ea916dd5ddd8f17d2e14d76adb042995e2427e4edc6c7ffb3",
    ("scale", "autobalancer"): "78039d364280114c1b0317e843298ce3f5f22b547f6926779ca94534534680d9",
    ("scale", "external"): "4f977232aa6a98d43ac10907662dcf6c8bc7238e44f1cd08a5cb6bb9e1fa37d5",
}
# Autobalancer digests from before `reward_ledger` lost its constant
# `"diverted_to_treasury": false` key.
WITH_DIVERTED_KEY = {
    "baseline": "8684f391c212abe223b51a5938c37ef84c640abb29e3f68dddcbbc63f3c481e9",
    "chaos": "75038c0839078097b16f4b947213e5008a9cf1b3f6eed2570a0739a1986cb1ec",
    "scale": "acc673be7bcf2457174060b6103ec67f3212ddaed7f1c0e547f47f5fba625e1d",
}
SCALE_EPOCHS = 4


def golden_config(scenario):
    path = SCENARIOS / f"{scenario}.yaml"
    if scenario != "scale":
        return load_scenario(path)
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    data["blocks"]["epochs"] = SCALE_EPOCHS
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
