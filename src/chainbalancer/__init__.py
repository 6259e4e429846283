"""Deterministic block-production simulator with in-protocol arbitrage capture.

The library models constant-product venues against a reference market,
packs user transactions into gas-bounded blocks, executes governance-
selected balancer transactions in the residual capacity, and distributes
the realized profit pool across network stakeholders.
"""

from .arbitrage import (
    Deviation,
    ExecutionResult,
    Funding,
    OppDirection,
    Opportunity,
    Threshold,
    deviation_bounds,
    execute_atomic,
    fee_band,
    optimal_trade_size,
)
from .chain import (
    Block,
    FeasibilityPredicate,
    UserFlowParams,
    UserTx,
    check_feasibility,
    execute_block_balancer_phase,
    execute_block_user_phase,
    generate_user_flow,
    performance_cost_psi,
    utilization,
)
from .config import ScenarioConfig, ValidationError, from_dict, load_scenario
from .market import (
    NUMERAIRE,
    DegenerateVenueError,
    Pool,
    SwapDirection,
    execute_swap,
    quote_swap,
    snapshot_prices,
    spot_price,
)
from .metrics import (
    ObjectiveSample,
    ObjectiveWeights,
    cumulative_discrepancy,
    epoch_constraint_check,
    scalarized_objective,
)
from .rewards import (
    MarketplaceContribution,
    RewardLedger,
    RewardWeights,
    apply_slashing,
    build_ledger,
    measure_contribution,
    pay_producer,
    split_marketplaces,
    split_pool,
)
from .runner import (
    RunResult,
    SimulationAbort,
    SimulationRun,
    run_baseline_comparison,
    run_scenario,
)
from .searchers import (
    BalancerTemplate,
    Credibility,
    GovernanceConditions,
    SearcherProfile,
    SearcherProposal,
    build_proposal,
    evaluate_proposals,
    update_credibility,
)
from .state import ChainState
from .units import SCALE, to_nano, to_units

__version__ = "0.1.0"
