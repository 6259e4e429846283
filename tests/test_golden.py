"""Golden digests: report.json bytes pinned per (scenario, mode).

Each case runs a shipped scenario at its first seed and hashes the
report exactly as the CLI writes it. A change that moves a digest
changes results; re-pin it only with the reason recorded in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from chainbalancer import load_scenario, run_scenario
from chainbalancer.report import write_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("baseline", "off"): "f7af00cdd5459a36f8030e7068232dbe1c0e62078080b191e741314e76160451",
    ("baseline", "autobalancer"): "f166ae2804839650f53e195e5603a1a1a90323d9662f685fa8ff44e30b5c29df",
    ("baseline", "external"): "43c12c02b2a81c90ca0f2bf116aebdaed3e784fb150030d4dacee08409010742",
    ("chaos", "off"): "082f77c635f5e0509663774c72f45ba97e9f158b00ef694705b3153945f5cf77",
    ("chaos", "autobalancer"): "4311396b4b32c6ebd23e56201f0026699eba8fc22717a0a9f746ad384d60068d",
    ("chaos", "external"): "166419af8a4c47517312f2cd34a522b33e948e7d1fa9c13cbd87b8ad7f56e9db",
}


@pytest.mark.parametrize("scenario,mode", sorted(GOLDEN))
def test_report_digest_pinned(scenario, mode, tmp_path):
    config = load_scenario(SCENARIOS / f"{scenario}.yaml")
    result = run_scenario(config, seed=config.seeds[0], mode=mode)
    path = write_json(result.report(), tmp_path / "report.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(scenario, mode)]
