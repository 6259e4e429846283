"""Governance replay contexts: the last `window` closing states per boundary."""

import pytest

import chainbalancer.runner as runner_mod
from chainbalancer import run_scenario
from chainbalancer.config import from_dict
from chainbalancer.state import ChainState

from conftest import baseline_raw

EPOCH_LENGTH = 5
EPOCHS = 4


def _config(window):
    return from_dict(
        baseline_raw(
            blocks={"epochs": EPOCHS, "epoch_length": EPOCH_LENGTH},
            searchers={"window": window},
        )
    )


@pytest.mark.parametrize("window", [2, EPOCH_LENGTH, 8])
def test_replays_read_last_window_closing_states(window, monkeypatch):
    original = runner_mod.evaluate_proposals
    seen = []

    def recording(proposals, recent_blocks, *args, **kwargs):
        seen.append([(state.block_height, room) for state, room in recent_blocks])
        return original(proposals, recent_blocks, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "evaluate_proposals", recording)
    config = _config(window)
    rows = run_scenario(config, seed=3, mode="autobalancer").report()["blocks"]

    assert len(seen) == EPOCHS
    gas_per_tx = config.threshold.gas_per_tx
    # the first epoch has no closing states yet and replays the genesis state
    assert seen[0] == [(0, config.capacity // gas_per_tx)]
    for epoch in range(1, EPOCHS):
        boundary = epoch * EPOCH_LENGTH
        expected = [
            (height, (config.capacity - rows[height]["user_gas"]) // gas_per_tx)
            for height in range(max(0, boundary - window), boundary)
        ]
        assert seen[epoch] == expected


def test_off_mode_clones_no_state(monkeypatch):
    calls = []
    original = ChainState.clone

    def counting(self):
        calls.append(self.block_height)
        return original(self)

    monkeypatch.setattr(ChainState, "clone", counting)
    run_scenario(_config(8), seed=3, mode="off")
    assert calls == []
