"""Deterministic block-production simulator with in-protocol arbitrage capture.

The library models constant-product venues against a reference market,
packs user transactions into gas-bounded blocks, executes governance-
selected balancer transactions in the residual capacity, and distributes
the realized profit pool across network stakeholders.

The package root exports the scenario-to-report entry points and the pool
and sizing primitives the demos use; everything else is imported from its
own module.
"""

from .arbitrage import (
    Funding,
    Threshold,
    deviation_bounds,
    execute_atomic,
    fee_band,
    optimal_trade_size,
)
from .config import ScenarioConfig, ValidationError, load_scenario
from .market import Pool, SwapDirection, execute_swap, quote_swap, spot_price
from .runner import RunResult, SimulationAbort, run_baseline_comparison, run_scenario

__version__ = "0.1.0"
