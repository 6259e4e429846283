"""The run's three steps, each called alone: epoch open, block step, epoch close."""

from pathlib import Path

import pytest

from chainbalancer import load_scenario, run_scenario, runner
from chainbalancer.config import MODES
from chainbalancer.metrics import performance_cost_psi
from chainbalancer.runner import SimulationRun, draw_user_flow

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.yaml"


def test_off_mode_opening_builds_nothing_and_draws_nothing():
    config = load_scenario(BASELINE)
    run = SimulationRun(config, seed=config.seeds[0], mode="off")
    before = {sid: rng.getstate() for sid, rng in run.rng_searchers.items()}
    proposals, scores, selected = run._open_epoch()
    assert proposals == [] and scores == {} and selected is None
    assert {sid: rng.getstate() for sid, rng in run.rng_searchers.items()} == before


def test_one_epoch_driven_by_hand_matches_execute():
    config = load_scenario(BASELINE)
    seed = config.seeds[0]
    full = SimulationRun(config, seed, "autobalancer").execute()

    run = SimulationRun(config, seed, "autobalancer")
    flow = draw_user_flow(config, seed)[: config.epoch_length]
    proposals, scores, selected = run._open_epoch()
    active_set = selected.ordered_txs if selected else []
    blocks = [run._step_block(arrivals, active_set) for arrivals in flow]
    row, ledger = run._close_epoch(0, blocks, proposals, scores, selected)

    assert any(b.balancer_executed for b in blocks), "the epoch must commit balancer txs"
    assert blocks == full.blocks[: config.epoch_length]
    assert row == full.epoch_rows[0]
    assert ledger == full.ledgers[0]
    assert run.state.block_height == config.epoch_length


@pytest.mark.parametrize("mode", MODES)
def test_psi_is_scored_once_per_block(mode, monkeypatch):
    """The block step scores psi at the block's close; the report row and the
    epoch's constraint check read the block's value instead of scoring again."""
    scored = []

    def counted(u: float, u_star: float) -> float:
        scored.append(u)
        return performance_cost_psi(u, u_star)

    monkeypatch.setattr(runner, "performance_cost_psi", counted)
    config = load_scenario(BASELINE)
    result = run_scenario(config, seed=config.seeds[0], mode=mode)
    report = result.report()
    assert len(scored) == len(result.blocks) == config.epochs * config.epoch_length
    assert scored == [b.utilization for b in result.blocks]
    assert [r["psi"] for r in report["blocks"]] == [b.psi for b in result.blocks]
