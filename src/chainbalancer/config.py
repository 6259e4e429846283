"""Scenario configuration: one YAML file describes a full run.

Loading fills documented defaults, validates every rule, and reports all
violations at once (not just the first). The canonical form of the config
is hashed into every report header so a report is traceable to the exact
inputs that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .arbitrage import Funding, Threshold
from .chain import FeasibilityPredicate, UserFlowParams
from .market import NUMERAIRE, Pool
from .metrics import ObjectiveWeights
from .rewards import RewardWeights, WeightError
from .searchers import GovernanceConditions, SearcherProfile
from .units import ppb, to_nano

MODES = ("off", "autobalancer", "external")

DEFAULTS: dict = {
    "assets": {"count": 2},
    "blocks": {
        "capacity": 1_000_000,
        "epoch_length": 20,
        "epochs": 10,
        "gas_per_user_swap": 21_000,
        "gas_per_balancer_tx": 90_000,
    },
    "user_flow": {
        "rate": 5.0,
        "size_mu": 2.0,
        "size_sigma": 0.5,
        "num_users": 8,
        "endowment": 1_000_000.0,
    },
    "threshold": {"epsilon": 0.003, "flash_fee": 0.0009, "gas_price": 1e-7},
    "weights": {
        "omega": {"searchers": 0.4, "marketplaces": 0.4, "treasury": 0.2},
        "lambda1": 1.0,
        "lambda2": 0.1,
        "delta": 0.05,
        "u_star": 0.9,
        "gamma": 0.5,
        "beta": 0.8,
    },
    "searchers": {
        "window": 8,
        "profiles": [
            {"id": 0, "noise": 0.0, "coverage": 1.0},
            {"id": 1, "noise": 0.05, "coverage": 1.0},
            {"id": 2, "noise": 0.1, "coverage": 0.8},
            {"id": 3, "noise": 0.2, "coverage": 0.6},
        ],
    },
    "governance": {
        "allowed_funding": ["flash_loan", "network_liquidity"],
        "max_set_size": 16,
    },
    "feasibility": {"max_txs_per_block": 16, "min_net_profit": 0.0},
    "producer": {"dishonesty_rate": 0.0, "slash_penalty_multiple": 10},
    "balances": {
        "treasury_numeraire": 1_000_000.0,
        "lender_numeraire": 1_000_000_000.0,
        "external_numeraire": 1_000_000.0,
    },
    "chaos": {"forced_revert_rate": 0.0},
    "seeds": [42],
    "mode": "autobalancer",
}


class ValidationError(Exception):
    """Carries every violation found in a scenario, with field paths."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid scenario:\n  " + "\n  ".join(violations))
        self.violations = violations


@dataclass
class PoolSpec:
    venue_id: int
    asset: int
    reserve_asset: float
    reserve_numeraire: float
    fee: float
    is_reference: bool = False


@dataclass
class ScenarioConfig:
    asset_count: int
    asset_names: list[str]
    pool_specs: list[PoolSpec]
    capacity: int
    epoch_length: int
    epochs: int
    gas_per_user_swap: int
    gas_per_balancer_tx: int
    user_flow: UserFlowParams
    endowment: float
    threshold: Threshold
    reward_weights: RewardWeights
    objective_weights: ObjectiveWeights
    u_star: float
    gamma: float
    beta: float
    searcher_profiles: list[SearcherProfile]
    governance_window: int
    governance: GovernanceConditions
    feasibility: FeasibilityPredicate
    dishonesty_rate: float
    slash_penalty_multiple: int
    treasury_numeraire: float
    lender_numeraire: float
    external_numeraire: float
    forced_revert_rate: float
    seeds: list[int]
    mode: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def reference_venue_id(self) -> int:
        return self.governance.reference_venue_id

    @property
    def venue_ids(self) -> list[int]:
        return sorted({p.venue_id for p in self.pool_specs if not p.is_reference})

    @property
    def venue_assets(self) -> dict[int, list[int]]:
        mapping: dict[int, list[int]] = {}
        for spec in self.pool_specs:
            mapping.setdefault(spec.venue_id, []).append(spec.asset)
        return {v: sorted(assets) for v, assets in mapping.items()}

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def build_pools(self) -> dict[tuple[int, int], Pool]:
        pools = {}
        for spec in sorted(self.pool_specs, key=lambda s: (s.venue_id, s.asset)):
            pools[(spec.venue_id, spec.asset)] = Pool(
                venue_id=spec.venue_id,
                base=spec.asset,
                quote=NUMERAIRE,
                reserve_base=to_nano(spec.reserve_asset),
                reserve_quote=to_nano(spec.reserve_numeraire),
                fee_ppb=ppb(spec.fee),
                is_reference=spec.is_reference,
            )
        return pools


def _merge_defaults(raw: dict) -> dict:
    merged = {}
    for key, default in DEFAULTS.items():
        value = raw.get(key)
        if isinstance(default, dict):
            merged[key] = {**default, **(value or {})}
        else:
            merged[key] = value if value is not None else default
    for key in raw:
        if key not in merged:
            merged[key] = raw[key]
    return merged


def _validate(raw: dict) -> list[str]:
    v: list[str] = []

    assets = raw.get("assets", {})
    count = assets.get("count", 0)
    if not isinstance(count, int) or count < 2:
        v.append("assets.count: need at least the numeraire plus one tradeable asset")

    pools = raw.get("pools")
    reference_venues = set()
    seen_pairs = set()
    hosted: dict[int, set[int]] = {}
    if not pools:
        v.append("pools: at least one pool is required")
        pools = []
    for i, p in enumerate(pools):
        path = f"pools[{i}]"
        try:
            venue = int(p["venue"])
            asset = int(p["asset"])
        except (KeyError, TypeError, ValueError):
            v.append(f"{path}: venue and asset are required integers")
            continue
        if isinstance(count, int) and not 1 <= asset < count:
            v.append(f"{path}.asset: {asset} outside [1, {count})")
        if (venue, asset) in seen_pairs:
            v.append(f"{path}: duplicate pool for venue {venue}, asset {asset}")
        seen_pairs.add((venue, asset))
        hosted.setdefault(venue, set()).add(asset)
        for fld in ("reserve_asset", "reserve_numeraire"):
            if not isinstance(p.get(fld), (int, float)) or p.get(fld, 0) <= 0:
                v.append(f"{path}.{fld}: must be a positive number")
        fee = p.get("fee", 0.0)
        if not isinstance(fee, (int, float)) or not 0 <= fee < 0.1:
            v.append(f"{path}.fee: {fee} outside [0, 0.1)")
        if p.get("reference"):
            reference_venues.add(venue)

    if len(reference_venues) == 0 and pools:
        v.append("pools: exactly one reference venue required, found none")
    elif len(reference_venues) > 1:
        v.append(
            "pools: exactly one reference venue required, found "
            + ", ".join(str(x) for x in sorted(reference_venues))
        )
    elif reference_venues:
        ref = next(iter(reference_venues))
        ref_assets = hosted.get(ref, set())
        for venue, assets_v in sorted(hosted.items()):
            if venue == ref:
                continue
            missing = assets_v - ref_assets
            if missing:
                v.append(
                    f"pools: venue {venue} lists assets {sorted(missing)} "
                    f"absent from reference venue {ref}"
                )

    blocks = raw.get("blocks", {})
    capacity = blocks.get("capacity", 0)
    if not isinstance(capacity, int) or capacity <= 0:
        v.append("blocks.capacity: must be a positive integer")
    for fld in ("epoch_length", "gas_per_user_swap", "gas_per_balancer_tx"):
        if not isinstance(blocks.get(fld), int) or blocks.get(fld, 0) <= 0:
            v.append(f"blocks.{fld}: must be a positive integer")
    if not isinstance(blocks.get("epochs"), int) or blocks.get("epochs", -1) < 0:
        v.append("blocks.epochs: must be a non-negative integer")
    if isinstance(capacity, int) and capacity > 0:
        for fld in ("gas_per_user_swap", "gas_per_balancer_tx"):
            gas = blocks.get(fld)
            if isinstance(gas, int) and gas > capacity:
                v.append(f"blocks.{fld}: {gas} exceeds block capacity {capacity}")

    flow = raw.get("user_flow", {})
    if flow.get("rate", 0) < 0:
        v.append("user_flow.rate: must be non-negative")
    if flow.get("size_sigma", 0) < 0:
        v.append("user_flow.size_sigma: must be non-negative")
    if not isinstance(flow.get("num_users"), int) or flow.get("num_users", 0) < 1:
        v.append("user_flow.num_users: must be a positive integer")
    if flow.get("endowment", 0) < 0:
        v.append("user_flow.endowment: must be non-negative")
    weights_cfg = flow.get("venue_weights")
    if weights_cfg is not None:
        for venue_key, w in weights_cfg.items():
            try:
                venue = int(venue_key)
            except (TypeError, ValueError):
                v.append(f"user_flow.venue_weights: key {venue_key!r} is not a venue id")
                continue
            if venue not in hosted:
                v.append(f"user_flow.venue_weights: venue {venue_key} has no pools")
            if not isinstance(w, (int, float)) or w < 0:
                v.append(f"user_flow.venue_weights[{venue_key}]: must be a non-negative number")

    thr = raw.get("threshold", {})
    if thr.get("epsilon", 0) <= 0:
        v.append("threshold.epsilon: must be positive")
    if not 0 <= thr.get("flash_fee", 0) < 0.01:
        v.append("threshold.flash_fee: outside [0, 0.01)")
    if thr.get("gas_price", 0) < 0:
        v.append("threshold.gas_price: must be non-negative")

    w = raw.get("weights", {})
    omega = w.get("omega", {})
    try:
        RewardWeights.from_values(
            omega.get("searchers", 0), omega.get("marketplaces", 0), omega.get("treasury", 0)
        )
    except (WeightError, ValueError) as exc:
        v.append(f"weights.omega: {exc}")
    if w.get("lambda1", 0) < 0 or w.get("lambda2", 0) < 0:
        v.append("weights.lambda1/lambda2: must be non-negative")
    if w.get("lambda1", 0) == 0 and w.get("lambda2", 0) == 0:
        v.append("weights.lambda1/lambda2: must not both be zero")
    if not 0 <= w.get("u_star", 0) < 1:
        v.append("weights.u_star: outside [0, 1)")
    if w.get("delta", 0) < 0:
        v.append("weights.delta: must be non-negative")
    if not 0 < w.get("gamma", 0) < 1:
        v.append("weights.gamma: outside the open interval (0, 1)")
    if not 0 <= w.get("beta", 0) <= 1:
        v.append("weights.beta: outside [0, 1]")

    searchers = raw.get("searchers", {})
    if not isinstance(searchers.get("window"), int) or searchers.get("window", 0) < 1:
        v.append("searchers.window: must be a positive integer")
    profiles = searchers.get("profiles") or []
    if not profiles:
        v.append("searchers.profiles: at least one profile required")
    ids = set()
    for i, prof in enumerate(profiles):
        if not isinstance(prof, dict):
            v.append(f"searchers.profiles[{i}]: must be a mapping")
            continue
        if prof.get("id") in ids:
            v.append(f"searchers.profiles[{i}]: duplicate id {prof.get('id')}")
        ids.add(prof.get("id"))
        if prof.get("noise", 0) < 0:
            v.append(f"searchers.profiles[{i}].noise: must be non-negative")
        if not 0 < prof.get("coverage", 1.0) <= 1:
            v.append(f"searchers.profiles[{i}].coverage: outside (0, 1]")

    gov = raw.get("governance", {})
    funding = gov.get("allowed_funding") or []
    valid_funding = {f.value for f in Funding}
    for mode_name in funding:
        if mode_name not in valid_funding:
            v.append(f"governance.allowed_funding: unknown mode {mode_name!r}")
    if not funding:
        v.append("governance.allowed_funding: must not be empty")
    if not isinstance(gov.get("max_set_size"), int) or gov.get("max_set_size", 0) < 1:
        v.append("governance.max_set_size: must be a positive integer")

    feas = raw.get("feasibility", {})
    if not isinstance(feas.get("max_txs_per_block"), int) or feas.get("max_txs_per_block", 0) < 1:
        v.append("feasibility.max_txs_per_block: must be a positive integer")

    producer = raw.get("producer", {})
    if not 0 <= producer.get("dishonesty_rate", 0) <= 1:
        v.append("producer.dishonesty_rate: outside [0, 1]")
    if producer.get("slash_penalty_multiple", 0) < 0:
        v.append("producer.slash_penalty_multiple: must be non-negative")

    balances = raw.get("balances", {})
    for fld in ("treasury_numeraire", "lender_numeraire", "external_numeraire"):
        if balances.get(fld, 0) < 0:
            v.append(f"balances.{fld}: must be non-negative")

    chaos = raw.get("chaos", {})
    if not 0 <= chaos.get("forced_revert_rate", 0) <= 1:
        v.append("chaos.forced_revert_rate: outside [0, 1]")

    seeds = raw.get("seeds")
    if not seeds or not all(isinstance(s, int) and s >= 0 for s in seeds):
        v.append("seeds: need a non-empty list of non-negative integers")

    if raw.get("mode") not in MODES:
        v.append(f"mode: {raw.get('mode')!r} not one of {MODES}")

    return v


def _section_type_violations(raw: dict) -> list[str]:
    v = []
    for key, default in DEFAULTS.items():
        value = raw.get(key)
        if value is None:
            continue
        if isinstance(default, dict) and not isinstance(value, dict):
            v.append(f"{key}: must be a mapping")
        if isinstance(default, list) and not isinstance(value, list):
            v.append(f"{key}: must be a list")
    if raw.get("pools") is not None and not isinstance(raw["pools"], list):
        v.append("pools: must be a list of pool mappings")
    elif isinstance(raw.get("pools"), list):
        v.extend(
            f"pools[{i}]: must be a mapping"
            for i, p in enumerate(raw["pools"])
            if not isinstance(p, dict)
        )
    return v


def from_dict(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario mapping and build the typed config."""
    raw = raw or {}
    type_violations = _section_type_violations(raw)
    if type_violations:
        raise ValidationError(type_violations)
    merged = _merge_defaults(raw)
    violations = _validate(merged)
    if violations:
        raise ValidationError(violations)

    pool_specs = [
        PoolSpec(
            venue_id=int(p["venue"]),
            asset=int(p["asset"]),
            reserve_asset=float(p["reserve_asset"]),
            reserve_numeraire=float(p["reserve_numeraire"]),
            fee=float(p.get("fee", 0.0)),
            is_reference=bool(p.get("reference", False)),
        )
        for p in merged["pools"]
    ]
    reference_venue_id = next(s.venue_id for s in pool_specs if s.is_reference)
    # every pool on the reference venue is reference-flagged
    for spec in pool_specs:
        if spec.venue_id == reference_venue_id:
            spec.is_reference = True

    flow_cfg = merged["user_flow"]
    venue_weights = flow_cfg.get("venue_weights")
    if venue_weights is None:
        venue_weights = {
            s.venue_id: 1.0
            for s in pool_specs
            if s.venue_id != reference_venue_id
        }
    else:
        venue_weights = {int(k): float(w) for k, w in venue_weights.items()}
    user_flow = UserFlowParams(
        rate=float(flow_cfg["rate"]),
        size_mu=float(flow_cfg["size_mu"]),
        size_sigma=float(flow_cfg["size_sigma"]),
        venue_weights=venue_weights,
        num_users=int(flow_cfg["num_users"]),
        gas_per_swap=int(merged["blocks"]["gas_per_user_swap"]),
    )

    w = merged["weights"]
    omega = w["omega"]
    governance = GovernanceConditions(
        allowed_funding=frozenset(Funding(f) for f in merged["governance"]["allowed_funding"]),
        reference_venue_id=reference_venue_id,
        max_set_size=int(merged["governance"]["max_set_size"]),
    )
    feasibility = FeasibilityPredicate(
        max_txs_per_block=int(merged["feasibility"]["max_txs_per_block"]),
        min_net_profit=to_nano(merged["feasibility"]["min_net_profit"]),
        allowed_funding=governance.allowed_funding,
    )
    profiles = [
        SearcherProfile(
            searcher_id=int(p["id"]),
            noise=float(p.get("noise", 0.0)),
            coverage=float(p.get("coverage", 1.0)),
        )
        for p in merged["searchers"]["profiles"]
    ]

    names = merged["assets"].get("names") or [
        f"asset{i}" if i else "numeraire" for i in range(merged["assets"]["count"])
    ]

    return ScenarioConfig(
        asset_count=int(merged["assets"]["count"]),
        asset_names=[str(n) for n in names],
        pool_specs=pool_specs,
        capacity=int(merged["blocks"]["capacity"]),
        epoch_length=int(merged["blocks"]["epoch_length"]),
        epochs=int(merged["blocks"]["epochs"]),
        gas_per_user_swap=int(merged["blocks"]["gas_per_user_swap"]),
        gas_per_balancer_tx=int(merged["blocks"]["gas_per_balancer_tx"]),
        user_flow=user_flow,
        endowment=float(flow_cfg["endowment"]),
        threshold=Threshold(
            epsilon=float(merged["threshold"]["epsilon"]),
            flash_fee=float(merged["threshold"]["flash_fee"]),
            gas_price=float(merged["threshold"]["gas_price"]),
        ),
        reward_weights=RewardWeights.from_values(
            omega["searchers"], omega["marketplaces"], omega["treasury"]
        ),
        objective_weights=ObjectiveWeights(
            lambda1=float(w["lambda1"]),
            lambda2=float(w["lambda2"]),
            delta_cap=float(w["delta"]),
        ),
        u_star=float(w["u_star"]),
        gamma=float(w["gamma"]),
        beta=float(w["beta"]),
        searcher_profiles=profiles,
        governance_window=int(merged["searchers"]["window"]),
        governance=governance,
        feasibility=feasibility,
        dishonesty_rate=float(merged["producer"]["dishonesty_rate"]),
        slash_penalty_multiple=int(merged["producer"]["slash_penalty_multiple"]),
        treasury_numeraire=float(merged["balances"]["treasury_numeraire"]),
        lender_numeraire=float(merged["balances"]["lender_numeraire"]),
        external_numeraire=float(merged["balances"]["external_numeraire"]),
        forced_revert_rate=float(merged["chaos"]["forced_revert_rate"]),
        seeds=[int(s) for s in merged["seeds"]],
        mode=str(merged["mode"]),
        raw=merged,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file (YAML; JSON is a YAML subset)."""
    text = Path(path).read_text(encoding="utf-8")
    raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValidationError([f"{path}: top level must be a mapping"])
    return from_dict(raw)
