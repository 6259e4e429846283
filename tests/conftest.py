"""Shared builders for pools, states, and scenario configs."""

from __future__ import annotations

import pytest

from chainbalancer import Pool, Threshold
from chainbalancer.config import from_dict
from chainbalancer.market import NUMERAIRE
from chainbalancer.state import ChainState
from chainbalancer.units import ppb, to_nano


def make_pool(
    venue_id: int,
    asset: int = 1,
    reserve_asset: float = 1000.0,
    reserve_numeraire: float = 1000.0,
    fee: float = 0.0,
) -> Pool:
    return Pool(
        venue_id=venue_id,
        base=asset,
        reserve_base=to_nano(reserve_asset),
        reserve_quote=to_nano(reserve_numeraire),
        fee_ppb=ppb(fee),
    )


def make_state(
    pools: list[Pool],
    treasury_numeraire: float = 1e6,
    lender: float = 1e9,
    reference_venue_id: int = 0,
    threshold: Threshold | None = None,
) -> ChainState:
    pools_by_key = {(p.venue_id, p.base): p for p in pools}
    state = ChainState(pools_by_key, reference_venue_id, threshold or Threshold())
    state.credit("treasury", NUMERAIRE, to_nano(treasury_numeraire))
    state.credit("lender", NUMERAIRE, to_nano(lender))
    state.credit("external", NUMERAIRE, to_nano(treasury_numeraire))
    return state


def baseline_raw(**overrides) -> dict:
    """3 venues + a deeper reference, 2 tradeable assets, mild initial gaps."""
    raw = {
        "assets": {"count": 3},
        "pools": [
            {"venue": 0, "asset": 1, "reserve_asset": 20000.0, "reserve_numeraire": 20000.0, "fee": 0.003, "reference": True},
            {"venue": 0, "asset": 2, "reserve_asset": 10000.0, "reserve_numeraire": 30000.0, "fee": 0.003, "reference": True},
            {"venue": 1, "asset": 1, "reserve_asset": 2000.0, "reserve_numeraire": 2020.0, "fee": 0.003},
            {"venue": 1, "asset": 2, "reserve_asset": 1500.0, "reserve_numeraire": 4500.0, "fee": 0.003},
            {"venue": 2, "asset": 1, "reserve_asset": 3000.0, "reserve_numeraire": 2970.0, "fee": 0.003},
            {"venue": 2, "asset": 2, "reserve_asset": 2000.0, "reserve_numeraire": 6060.0, "fee": 0.003},
            {"venue": 3, "asset": 1, "reserve_asset": 2500.0, "reserve_numeraire": 2500.0, "fee": 0.003},
        ],
        "blocks": {"epochs": 5, "epoch_length": 20},
        "user_flow": {"rate": 5.0, "size_mu": 2.8, "size_sigma": 0.8},
        "searchers": {"window": 4},
        "seeds": [42],
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


@pytest.fixture
def baseline_config():
    return from_dict(baseline_raw())
