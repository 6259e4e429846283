"""Scenario configuration: one YAML file describes a full run.

Every field is one row of `FIELDS`: its path, its default, the check its
value must pass and the rule that check states. Loading fills the
defaults, checks every row and then the rules that tie fields together,
and reports all violations at once, each with its field path. The
canonical form of the config is hashed into every report header so a
report is traceable to the exact inputs that produced it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .arbitrage import Funding, Threshold
from .chain import UserFlowParams
from .market import MAX_FEE_PPB, NUMERAIRE, Pool
from .metrics import ObjectiveWeights
from .rewards import RewardWeights, WeightError
from .searchers import GovernanceConditions, SearcherProfile
from .units import ppb, to_nano

MODES = ("off", "autobalancer", "external")
_FUNDING = tuple(f.value for f in Funding)
_OMEGA_KEYS = ("searchers", "marketplaces", "treasury")
# every integer field is a signed 64-bit integer, so every accepted
# config can be hashed (Python will not write an int of 4,300+ digits)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _is_int(value) -> bool:
    """An int in the signed 64-bit range; bools are not."""
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    return INT64_MIN <= value <= INT64_MAX


def _is_number(value) -> bool:
    """An int or a float that is finite as a float; bools and strings are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _shown(value) -> str:
    """repr(value) for a violation message, but an int too long for Python to
    write as text (4,300 digits by default, 640 at the least) by its bit length."""
    if isinstance(value, int) and value.bit_length() > 2_000:  # about 602 digits
        return f"an integer of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:  # such an int inside a container
        return f"a {type(value).__name__} holding an integer too long to write out"


def _num(test):
    return lambda value: _is_number(value) and test(value)


def _int(low: int, high: float = math.inf):
    return lambda value: _is_int(value) and low <= value <= high


def _nonempty_list(item=lambda x: True):
    return lambda value: isinstance(value, list) and bool(value) and all(map(item, value))


INTEGER = (_is_int, "an integer in [-2^63, 2^63 - 1]")
POSITIVE_INT = (_int(1), "an integer in [1, 2^63 - 1]")
NON_NEGATIVE_INT = (_int(0), "an integer in [0, 2^63 - 1]")
NON_NEGATIVE = (_num(lambda x: x >= 0), "a non-negative number")
UNIT_INTERVAL = (_num(lambda x: 0 <= x <= 1), "a number in [0, 1]")
# 1e30 keeps every product in the float sizing closed form below about 1e120
RESERVE = (
    _num(lambda x: x <= 1e30 and to_nano(x) >= 1),
    "a number of at most 1e30 that rounds to at least one nano-unit (1e-9)",
)

# (path, default, check, rule). A default fills an absent top-level or
# section key in the hashed mapping; a `[]` row applies to every item of
# a list, and its default is applied when building, never written into
# the mapping. A row without a default is optional when its check accepts
# None and required otherwise.
FIELDS = (
    # sizes are bounded because a run allocates per asset per user and per block
    ("assets.count", 2, _int(2, 1_000), "an integer in [2, 1000] (the numeraire included)"),
    ("pools", None, _nonempty_list(), "a non-empty list of pool mappings"),
    ("pools[].venue", None, *INTEGER),
    ("pools[].asset", None, *INTEGER),
    ("pools[].reserve_asset", None, *RESERVE),
    ("pools[].reserve_numeraire", None, *RESERVE),
    ("pools[].fee", 0.0, _num(lambda x: x >= 0 and ppb(x) < MAX_FEE_PPB), "a number in [0, 0.1)"),
    ("pools[].reference", False, lambda v: isinstance(v, bool), "true or false"),
    ("blocks.capacity", 1_000_000, *POSITIVE_INT),
    ("blocks.epoch_length", 20, *POSITIVE_INT),
    ("blocks.epochs", 10, *NON_NEGATIVE_INT),
    ("blocks.gas_per_user_swap", 21_000, *POSITIVE_INT),
    ("blocks.gas_per_balancer_tx", 90_000, *POSITIVE_INT),
    ("user_flow.rate", 5.0, *NON_NEGATIVE),
    # bounded so that exp() of a swap size draw stays a finite float
    ("user_flow.size_mu", 2.0, _num(lambda x: -20 <= x <= 20), "a number in [-20, 20]"),
    ("user_flow.size_sigma", 0.5, _num(lambda x: 0 <= x <= 3), "a number in [0, 3]"),
    ("user_flow.num_users", 8, _int(1, 10_000), "an integer in [1, 10000]"),
    ("user_flow.endowment", 1_000_000.0, *NON_NEGATIVE),
    ("user_flow.venue_weights", None, lambda v: v is None or isinstance(v, dict),
     "a mapping of venue ids to non-negative numbers"),
    ("threshold.epsilon", 0.003, _num(lambda x: x > 0), "a positive number"),
    ("threshold.flash_fee", 0.0009, _num(lambda x: 0 <= x < 0.01), "a number in [0, 0.01)"),
    ("threshold.gas_price", 1e-7, *NON_NEGATIVE),
    ("weights.omega", {"searchers": 0.4, "marketplaces": 0.4, "treasury": 0.2},
     lambda v: isinstance(v, dict) and set(v) == set(_OMEGA_KEYS)
     and all(map(_is_number, v.values())),
     "a mapping of searchers, marketplaces and treasury to numbers"),
    ("weights.lambda1", 1.0, *NON_NEGATIVE),
    ("weights.lambda2", 0.1, *NON_NEGATIVE),
    ("weights.delta", 0.05, *NON_NEGATIVE),
    ("weights.u_star", 0.9, _num(lambda x: 0 <= x < 1), "a number in [0, 1)"),
    ("weights.gamma", 0.5, _num(lambda x: 0 < x < 1), "a number in (0, 1)"),
    ("weights.beta", 0.8, *UNIT_INTERVAL),
    ("searchers.window", 8, *POSITIVE_INT),
    ("searchers.profiles",
     [
         {"id": 0, "noise": 0.0, "coverage": 1.0},
         {"id": 1, "noise": 0.05, "coverage": 1.0},
         {"id": 2, "noise": 0.1, "coverage": 0.8},
         {"id": 3, "noise": 0.2, "coverage": 0.6},
     ],
     _nonempty_list(), "a non-empty list of profile mappings"),
    ("searchers.profiles[].id", None, *INTEGER),
    # bounded so exp() of a noise draw stays finite (math.exp raises): Box-Muller |z| <= 8.58
    ("searchers.profiles[].noise", 0.0, _num(lambda x: 0 <= x <= 10), "a number in [0, 10]"),
    ("searchers.profiles[].coverage", 1.0, _num(lambda x: 0 < x <= 1), "a number in (0, 1]"),
    ("governance.allowed_funding", list(_FUNDING), _nonempty_list(lambda f: f in _FUNDING),
     "a non-empty list from " + ", ".join(_FUNDING)),
    ("governance.max_set_size", 16, *POSITIVE_INT),
    ("governance.min_net_profit", 0.0, _is_number, "a number"),
    ("producer.dishonesty_rate", 0.0, *UNIT_INTERVAL),
    ("producer.slash_penalty_multiple", 10, *NON_NEGATIVE_INT),
    ("balances.treasury_numeraire", 1_000_000.0, *NON_NEGATIVE),
    ("balances.lender_numeraire", 1_000_000_000.0, *NON_NEGATIVE),
    ("balances.external_numeraire", 1_000_000.0, *NON_NEGATIVE),
    ("chaos.forced_revert_rate", 0.0, *UNIT_INTERVAL),
    ("seeds", [42], _nonempty_list(_int(0)), "a non-empty list of integers in [0, 2^63 - 1]"),
    ("mode", "autobalancer", lambda v: v in MODES, "one of " + ", ".join(MODES)),
)


def _scopes() -> dict[str, dict]:
    """Members of every mapping FIELDS describes, by scope ("" is the top level).

    A member is its row, or None for a section (a mapping of rows).
    """
    scopes: dict[str, dict] = {"": {}}
    for row in FIELDS:
        scope, _, key = row[0].rpartition(".")
        scopes.setdefault(scope, {})[key] = row
        if scope and not scope.endswith("[]"):
            scopes[""].setdefault(scope, None)
    return scopes


_SCOPES = _scopes()


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
    pool_specs: list[PoolSpec]
    capacity: int
    epoch_length: int
    epochs: int
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
    reference_venue_id: int
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


def _check_fields(raw: dict) -> tuple[dict, dict, list[str]]:
    """Fill defaults and check every value against its row in FIELDS.

    Returns the mapping that is hashed, the checked values by concrete
    path ("pools[2].fee"; per-item defaults included) and the violations.
    """
    values: dict = {}
    violations: list[str] = []

    def scan(mapping: dict, scope: str, at: str) -> dict:
        members = _SCOPES[scope]
        unknown = [k if isinstance(k, str) else _shown(k) for k in mapping if k not in members]
        violations.extend(f"{at}{key}: unknown key" for key in unknown)
        filled = dict(mapping)
        for key, row in members.items():
            path, value = at + key, mapping.get(key)
            if row is None:  # a section; null counts as absent
                if value is None:
                    value = {}
                if isinstance(value, dict):
                    filled[key] = scan(value, key, path + ".")
                else:
                    violations.append(f"{path}: must be a mapping, got {_shown(value)}")
                continue
            _, default, ok, rule = row
            if default is not None and (key not in mapping or (value is None and not scope)):
                value = copy.deepcopy(default)
                if not scope.endswith("[]"):
                    filled[key] = value
            if not ok(value):
                violations.append(f"{path}: must be {rule}, got {_shown(value)}")
                continue
            values[path] = value
            if row[0] + "[]" in _SCOPES:  # a list of mappings
                for i, item in enumerate(value):
                    if isinstance(item, dict):
                        scan(item, row[0] + "[]", f"{path}[{i}].")
                    else:
                        violations.append(f"{path}[{i}]: must be a mapping, got {_shown(item)}")
        return filled

    return scan(raw, "", ""), values, violations


def _venue_id(key) -> int | None:
    """A venue_weights key as a venue id: an integer, or a string of one (JSON keys)."""
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            return None
    return key if _is_int(key) else None


def _cross_violations(v: dict) -> list[str]:
    """Rules that tie fields together, over the values that passed their rows."""
    out: list[str] = []
    count = v.get("assets.count")
    hosted: dict[int, set[int]] = {}
    reference_venues = set()
    rows_failed = False
    for i in range(len(v.get("pools") or ())):
        venue, asset = v.get(f"pools[{i}].venue"), v.get(f"pools[{i}].asset")
        if venue is None or asset is None:
            rows_failed = True
            continue
        if count is not None and not 1 <= asset < count:
            out.append(f"pools[{i}].asset: {_shown(asset)} outside [1, {count})")
        if asset in hosted.get(venue, ()):
            out.append(f"pools[{i}]: duplicate pool for venue {_shown(venue)}, asset {asset}")
        hosted.setdefault(venue, set()).add(asset)
        if v.get(f"pools[{i}].reference"):
            reference_venues.add(venue)
    if v.get("pools") and len(reference_venues) != 1:
        found = ", ".join(_shown(x) for x in sorted(reference_venues)) or "none"
        out.append(f"pools: exactly one reference venue required, found {found}")
    elif reference_venues and not rows_failed:
        # a pool that failed its row is missing from `hosted`, so coverage
        # would be judged on a partial listing
        [ref] = reference_venues
        for venue, assets in sorted(hosted.items()):
            missing = assets - hosted[ref]
            if missing:
                out.append(
                    f"pools: venue {_shown(venue)} lists assets {sorted(missing)} "
                    f"absent from reference venue {_shown(ref)}"
                )

    epochs, length = v.get("blocks.epochs"), v.get("blocks.epoch_length")
    rate = v.get("user_flow.rate")
    if epochs is not None and length is not None:
        blocks = epochs * length
        if blocks > 1_000_000:
            out.append(
                f"blocks.epochs: {_shown(epochs)} epochs of {_shown(length)} blocks "
                "exceed 1000000 blocks"
            )
        elif rate is not None and rate * blocks > 10_000_000:
            # every user tx of the run is generated before the first block
            out.append(
                f"user_flow.rate: {_shown(rate)} per block over {blocks} blocks "
                "expects more than 10000000 user txs"
            )

    capacity = v.get("blocks.capacity")
    for name in ("gas_per_user_swap", "gas_per_balancer_tx"):
        gas = v.get(f"blocks.{name}")
        if capacity is not None and gas is not None and gas > capacity:
            out.append(f"blocks.{name}: {_shown(gas)} exceeds block capacity {_shown(capacity)}")

    weights = v.get("user_flow.venue_weights")
    if weights is not None:
        if len({isinstance(k, str) for k in weights}) > 1:
            out.append("user_flow.venue_weights: keys must be all integers or all strings")
        for key, weight in weights.items():
            venue = _venue_id(key)
            if venue is None:
                out.append(f"user_flow.venue_weights: key {_shown(key)} is not a venue id")
            elif venue not in hosted:
                out.append(f"user_flow.venue_weights: venue {_shown(venue)} has no pools")
            if not (_is_number(weight) and weight >= 0):
                name = key if isinstance(key, str) else _shown(key)
                out.append(
                    f"user_flow.venue_weights[{name}]: must be a non-negative number, "
                    f"got {_shown(weight)}"
                )
    elif len(reference_venues) == 1:  # the default: weight 1 on every other venue
        weights = {venue: 1 for venue in hosted if venue not in reference_venues}
    if v.get("user_flow.rate") and weights is not None and all(w == 0 for w in weights.values()):
        out.append("user_flow.venue_weights: must weigh a venue above 0 while user_flow.rate > 0")

    omega = v.get("weights.omega")
    if omega is not None:
        try:
            RewardWeights.from_values(*(omega[k] for k in _OMEGA_KEYS))
        except WeightError as exc:
            out.append(f"weights.omega: {exc}")
    if v.get("weights.lambda1") == 0 and v.get("weights.lambda2") == 0:
        out.append("weights: lambda1 and lambda2 must not both be zero")

    ids = set()
    for i in range(len(v.get("searchers.profiles") or ())):
        pid = v.get(f"searchers.profiles[{i}].id")
        if pid is not None and pid in ids:
            out.append(f"searchers.profiles[{i}]: duplicate id {_shown(pid)}")
        ids.add(pid)
    return out


def _items(v: dict, path: str) -> list[dict]:
    """The checked items of the list at `path`, per-item defaults applied."""
    keys = _SCOPES[path + "[]"]
    return [{k: v[f"{path}[{i}].{k}"] for k in keys} for i in range(len(v[path]))]


def from_dict(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario mapping and build the typed config."""
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ValidationError([f"top level: must be a mapping, got {_shown(raw)}"])
    merged, v, violations = _check_fields(raw)
    violations += _cross_violations(v)
    if violations:
        raise ValidationError(violations)

    pools = _items(v, "pools")
    reference = next(p["venue"] for p in pools if p["reference"])
    # every pool on the reference venue is reference-flagged
    pool_specs = [
        PoolSpec(
            p["venue"], p["asset"], p["reserve_asset"], p["reserve_numeraire"], p["fee"],
            is_reference=p["venue"] == reference,
        )
        for p in pools
    ]
    weights = v["user_flow.venue_weights"]
    if weights is None:
        venue_weights = {s.venue_id: 1.0 for s in pool_specs if s.venue_id != reference}
    else:
        venue_weights = {_venue_id(k): w for k, w in weights.items()}
    return ScenarioConfig(
        asset_count=v["assets.count"],
        pool_specs=pool_specs,
        capacity=v["blocks.capacity"],
        epoch_length=v["blocks.epoch_length"],
        epochs=v["blocks.epochs"],
        user_flow=UserFlowParams(
            rate=v["user_flow.rate"],
            size_mu=v["user_flow.size_mu"],
            size_sigma=v["user_flow.size_sigma"],
            venue_weights=venue_weights,
            num_users=v["user_flow.num_users"],
            gas_per_swap=v["blocks.gas_per_user_swap"],
        ),
        endowment=v["user_flow.endowment"],
        threshold=Threshold(
            epsilon=v["threshold.epsilon"],
            flash_fee=v["threshold.flash_fee"],
            gas_price=v["threshold.gas_price"],
            gas_per_tx=v["blocks.gas_per_balancer_tx"],
            allowed_funding=frozenset(Funding(f) for f in v["governance.allowed_funding"]),
        ),
        reward_weights=RewardWeights.from_values(*(v["weights.omega"][k] for k in _OMEGA_KEYS)),
        objective_weights=ObjectiveWeights(
            lambda1=v["weights.lambda1"],
            lambda2=v["weights.lambda2"],
            delta_cap=v["weights.delta"],
        ),
        u_star=v["weights.u_star"],
        gamma=v["weights.gamma"],
        beta=v["weights.beta"],
        searcher_profiles=[
            SearcherProfile(p["id"], p["noise"], p["coverage"])
            for p in _items(v, "searchers.profiles")
        ],
        governance_window=v["searchers.window"],
        governance=GovernanceConditions(
            max_set_size=v["governance.max_set_size"],
            min_net_profit=to_nano(v["governance.min_net_profit"]),
        ),
        reference_venue_id=reference,
        dishonesty_rate=v["producer.dishonesty_rate"],
        slash_penalty_multiple=v["producer.slash_penalty_multiple"],
        treasury_numeraire=v["balances.treasury_numeraire"],
        lender_numeraire=v["balances.lender_numeraire"],
        external_numeraire=v["balances.external_numeraire"],
        forced_revert_rate=v["chaos.forced_revert_rate"],
        seeds=list(v["seeds"]),
        mode=v["mode"],
        raw=merged,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file (YAML; JSON is a YAML subset)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise ValidationError([f"{path}: {exc}"]) from exc
    return from_dict(raw)
