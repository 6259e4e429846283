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
    ("baseline", "off"): "f7af00cdd5459a36f8030e7068232dbe1c0e62078080b191e741314e76160451",
    ("baseline", "autobalancer"): "3b1cea47b805f5005726730eee428e3b90b1f20cc5442b777d56432d068b1d5c",
    ("baseline", "external"): "60e434d50183e3b8108dd52bd0c85ee1bcb855ddf78ab46c0bb436a94d8cfe49",
    ("chaos", "off"): "082f77c635f5e0509663774c72f45ba97e9f158b00ef694705b3153945f5cf77",
    ("chaos", "autobalancer"): "1bd3970b1f094491374f8ef830e8aef68e0579a934865ab9c7173f5954ee557e",
    ("chaos", "external"): "f227accab17e78c7e07d6e784e20f44c6bc621b41f0c659bb177fc77bc23ea41",
    ("scale", "off"): "f8220d0c8884a05f4e763643bb4cf5bb8079309b271507a93757ae136b9f83b4",
    ("scale", "autobalancer"): "155c36826edd77e26a925a8875d6058a4d336ea8411c3cebcba8297c2ce565b3",
    ("scale", "external"): "448d01e33b3f0ccba115c96f7fc5763d9608f9155c8b585e1c89a3a4f6a8e596",
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
