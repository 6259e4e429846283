"""The scenario field table: every malformed scenario is a list of violations.

Mutations of the shipped scenarios must load or fail with field paths,
never with a traceback; the config hashes of the shipped scenarios are
pinned; README's defaults table is checked against `config.FIELDS`.
"""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainbalancer import ScenarioConfig, ValidationError, load_scenario, run_scenario
from chainbalancer.cli import main
from chainbalancer.config import FIELDS, from_dict

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "scenarios").glob("*.yaml"))

PINNED_HASHES = {
    "baseline.yaml": "51dfff5f8f472779e52e48748232037a13efa41e102fe795fe3b9c3c67c29a14",
    "chaos.yaml": "50da8e28113072d75575be8f88f3016b4e2994ba4958b7029acb17afcc6fafc9",
    "scale.yaml": "da3338b30078834913440057342742b5699ed4b97614c36d356e3f1642f9c1fa",
}

# a field path ("pools[3].reserve_asset"), then ": "
VIOLATION = re.compile(r"[a-z_]+(\[\d+\])?(\.[a-z_0-9]+(\[\d+\])?)*: ")

JUNK = st.one_of(
    st.sampled_from(
        [None, True, False, 0, 1, -1, 20, 0.5, -0.5, 1e-12, 1e-7, 10**400,
         math.nan, math.inf, -math.inf, "", "fast", "1e-7", "flash_loan",
         [], [1, 2], {}, {"a": 1}, {"1": 2.0}, {1: 0.0}]
    ),
    st.integers(-5, 100),
    st.floats(-2, 2),
)


def _raw(name: str) -> dict:
    return yaml.safe_load((ROOT / "scenarios" / name).read_text(encoding="utf-8"))


def _paths(node, prefix=()):
    """Every key path into the nested mapping, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _set(raw: dict, path: str, value) -> dict:
    """Set `path` ("blocks.epochs", "pools[0].fee") in `raw`, making sections."""
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = raw
    for key in parents:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[last] = value
    return raw


@st.composite
def mutations(draw, raw: dict) -> dict:
    """`raw` with 1-3 fields replaced by junk or deleted."""
    raw = copy.deepcopy(raw)
    for _ in range(draw(st.integers(1, 3))):
        options = list(_paths(raw))
        if not options:
            break
        *parents, last = draw(st.sampled_from(options))
        node = raw
        for key in parents:
            node = node[key]
        if draw(st.booleans()):
            del node[last]
        else:
            node[last] = draw(JUNK)
    return raw


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "scenario.yaml"


@pytest.mark.parametrize("name", [p.name for p in SHIPPED])
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenario_loads_or_lists_violations(name, data, scratch):
    raw = data.draw(mutations(_raw(name)))
    try:
        config = from_dict(copy.deepcopy(raw))
    except ValidationError as exc:
        config = None
        assert exc.violations
        for violation in exc.violations:
            assert VIOLATION.match(violation), violation
    else:
        assert isinstance(config, ScenarioConfig)
        config.config_hash()
    scratch.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["validate", str(scratch)]) == (1 if config is None else 0)


@pytest.mark.parametrize(
    "path,value,violation_at",
    [
        ("user_flow.rate", "fast", "user_flow.rate"),  # TypeError before
        ("threshold.epsilon", "x", "threshold.epsilon"),  # TypeError before
        ("weights.gamma", None, "weights.gamma"),  # TypeError before
        ("user_flow.venue_weights", [1, 2], "user_flow.venue_weights"),  # AttributeError before
        ("weights.omega", {"searchers": 0.5, "marketplaces": 0.5}, "weights.omega"),  # KeyError
        ("user_flow.venue_weights", {1: 0.0, 2: 0.0, 3: 0.0}, "user_flow.venue_weights"),  # ValueError
        ("user_flow.endowment", math.inf, "user_flow.endowment"),
        # only the reference venue: the default user flow has no venue (ValueError before)
        ("pools", [{"venue": 0, "asset": 1, "reserve_asset": 1.0, "reserve_numeraire": 1.0,
                    "reference": True}], "user_flow.venue_weights"),
        # accepted, then config_hash() raised ValueError (an int over 4,300
        # digits, which also cannot print as a test id)
        pytest.param("blocks.capacity", 10**5000, "blocks.capacity", id="capacity-10**5000"),
        pytest.param("searchers.window", 10**5000, "searchers.window", id="window-10**5000"),
        pytest.param("seeds", [10**5000], "seeds", id="seeds-10**5000"),
        # accepted, then the run aborted on int(inf) (OverflowError)
        ("user_flow.size_mu", 800, "user_flow.size_mu"),
        ("user_flow.size_sigma", 500, "user_flow.size_sigma"),
        ("searchers.profiles[0].noise", 1000, "searchers.profiles[0].noise"),
        ("pools[0].reserve_asset", 1e100, "pools[0].reserve_asset"),
        # accepted, then every sizing overflowed to (0, 0): captured 0 in silence
        ("pools[0].reserve_numeraire", 1e155, "pools[0].reserve_numeraire"),
    ],
)
def test_former_crash_is_a_violation_at_its_path(path, value, violation_at):
    with pytest.raises(ValidationError) as err:
        from_dict(_set(_raw("baseline.yaml"), path, value))
    assert any(v.startswith(violation_at + ": ") for v in err.value.violations), err.value.violations


@pytest.mark.parametrize(
    "old,new,path",
    [
        ("gas_price: 1.0e-7", "gas_price: 1e-7", "threshold.gas_price"),  # a string to PyYAML
        ("endowment: 1000000.0", "endowment: .inf", "user_flow.endowment"),
        ("reserve_asset: 3000.0,", "reserve_asset: 1e-12,", "pools[2].reserve_asset"),
        ("gamma: 0.5", "gamma: null", "weights.gamma"),
        # sizes that passed validation and then exhausted memory at run time
        ("count: 3", "count: 1" + "0" * 400, "assets.count"),
        ("num_users: 8", "num_users: 1" + "0" * 400, "user_flow.num_users"),
        ("epochs: 10", "epochs: 1" + "0" * 400, "blocks.epochs"),
    ],
)
def test_validate_names_the_field_and_exits_1(old, new, path, tmp_path, capsys):
    text = (ROOT / "scenarios" / "baseline.yaml").read_text(encoding="utf-8")
    assert old in text
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["validate", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert f"\n  {path}: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "path,limit",
    [("assets.count", 1_000), ("user_flow.num_users", 10_000), ("blocks.epochs", 50_000),
     ("blocks.capacity", 2**63 - 1), ("searchers.window", 2**63 - 1),
     ("user_flow.size_mu", 20.0), ("user_flow.size_mu", -20.0), ("user_flow.size_sigma", 3.0),
     ("searchers.profiles[0].noise", 10.0), ("pools[0].reserve_asset", 1e30),
     ("pools[0].reserve_numeraire", 1e30)],
)
def test_size_bounds_are_inclusive(path, limit):
    """The largest accepted size; one more (the next float away from zero,
    for a float limit) is a violation at its path (baseline epochs are 20
    blocks, so 50,000 epochs are 1,000,000 blocks; every integer is a
    signed 64-bit one)."""
    from_dict(_set(_raw("baseline.yaml"), path, limit))
    if isinstance(limit, int):
        over = limit + 1
    else:
        over = math.nextafter(limit, math.copysign(math.inf, limit))
    with pytest.raises(ValidationError) as err:
        from_dict(_set(_raw("baseline.yaml"), path, over))
    assert [v for v in err.value.violations if v.startswith(path + ": ")], err.value.violations


def _at_limits(reserve, size_mu, size_sigma, noise) -> dict:
    """baseline.yaml scaled so its largest reserve is `reserve` (price gaps
    kept), with balances and endowments that deep, the given user swap
    sizes and every searcher's estimate noise; 2 epochs."""
    raw = _raw("baseline.yaml")
    keys = ("reserve_asset", "reserve_numeraire")
    top = max(pool[k] for pool in raw["pools"] for k in keys)
    for pool in raw["pools"]:
        pool.update({k: reserve * (pool[k] / top) for k in keys})
    raw["blocks"]["epochs"] = 2
    raw["user_flow"].update(size_mu=size_mu, size_sigma=size_sigma, endowment=reserve)
    for profile in raw["searchers"]["profiles"]:
        profile["noise"] = noise
    raw["balances"] = {f"{who}_numeraire": reserve for who in ("treasury", "lender", "external")}
    return raw


@pytest.mark.parametrize("mode", ["off", "autobalancer", "external"])
def test_largest_accepted_sizes_run(mode):
    """The largest accepted reserves, swap sizes and noise run to the end
    and still size trades. With reserves of 1e100 units the run aborted on
    int(inf); from about 1e155 every sizing returned (0, 0) and the run
    captured 0."""
    result = run_scenario(from_dict(_at_limits(1e30, 20.0, 3.0, 10.0)), mode=mode)
    assert len(result.blocks) == 40
    if mode == "autobalancer":
        assert result.totals["captured"] > 0


def test_expected_user_txs_bound_is_inclusive():
    """rate x epochs x epoch_length user txs are generated up front, so at
    most 10,000,000 are accepted (baseline runs 200 blocks)."""
    from_dict(_set(_raw("baseline.yaml"), "user_flow.rate", 50_000))
    for rate in (50_000.5, 1e12):
        with pytest.raises(ValidationError) as err:
            from_dict(_set(_raw("baseline.yaml"), "user_flow.rate", rate))
        assert [v for v in err.value.violations if v.startswith("user_flow.rate: ")]


def test_integer_too_long_to_print_is_a_violation():
    """Python will not write an int of over 4,300 digits as text; the
    violation gives its bit length instead of raising ValueError."""
    with pytest.raises(ValidationError) as err:
        from_dict(_set(_raw("baseline.yaml"), "assets.count", 10**5000))
    assert err.value.violations == [
        "assets.count: must be an integer in [2, 1000] (the numeraire included), "
        "got an integer of 16610 bits"
    ]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00mode: x\n", b"seeds: [1" + b"0" * 4400 + b"]\n"],
    ids=["not-utf8", "int-too-long-to-parse"],
)
def test_unreadable_file_exits_1(content, tmp_path, capsys):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_bytes(content)
    assert main(["validate", str(scenario)]) == 1
    assert capsys.readouterr().err.startswith("invalid scenario:")


def test_unknown_keys_are_violations(tmp_path, capsys):
    raw = _raw("baseline.yaml")
    raw["extra"] = 1
    raw["blocks"]["capcity"] = 5
    raw["pools"][1]["fees"] = 0.003
    # keys of the old schema: the cap and profit floor are governance rows now
    raw["feasibility"] = {"max_txs_per_block": 16, "min_net_profit": 0.0}
    raw["assets"]["names"] = ["numeraire", "alpha", "beta"]
    expected = [
        "assets.names: unknown key",
        "blocks.capcity: unknown key",
        "extra: unknown key",
        "feasibility: unknown key",
        "pools[1].fees: unknown key",
    ]
    with pytest.raises(ValidationError) as err:
        from_dict(copy.deepcopy(raw))
    assert sorted(err.value.violations) == expected
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["validate", str(scenario)]) == 1
    err_text = capsys.readouterr().err
    assert all(f"\n  {v}" in err_text for v in expected), err_text


def test_integer_delta_reports_as_a_float():
    """Checked numbers are not cast, so the report casts the one it prints."""
    raw = _set(_raw("baseline.yaml"), "weights.delta", 0)
    raw["blocks"].update(epochs=1, epoch_length=2)
    report = run_scenario(from_dict(raw), mode="off").report()
    assert repr(report["epochs"][0]["constraint"]["delta"]) == "0.0"


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_config_hash_pinned(name):
    assert load_scenario(ROOT / "scenarios" / name).config_hash() == PINNED_HASHES[name]


# a valid value for every top-level and section row, unlike baseline's own
# (or its default), so each row has to show that something reads it
ALTERNATIVES = {
    "assets.count": 4,
    "pools": [
        {"venue": 0, "asset": 1, "reserve_asset": 30000.0, "reserve_numeraire": 30000.0,
         "reference": True},
        {"venue": 1, "asset": 1, "reserve_asset": 3000.0, "reserve_numeraire": 3030.0},
    ],
    "blocks.capacity": 2_000_000,
    "blocks.epoch_length": 10,
    "blocks.epochs": 5,
    "blocks.gas_per_user_swap": 30_000,
    "blocks.gas_per_balancer_tx": 100_000,
    "user_flow.rate": 2.0,
    "user_flow.size_mu": 2.0,
    "user_flow.size_sigma": 0.5,
    "user_flow.num_users": 4,
    "user_flow.endowment": 500_000.0,
    "user_flow.venue_weights": {1: 2.0, 2: 1.0, 3: 1.0},
    "threshold.epsilon": 0.005,
    "threshold.flash_fee": 0.001,
    "threshold.gas_price": 2.0e-7,
    "weights.omega": {"searchers": 0.5, "marketplaces": 0.3, "treasury": 0.2},
    "weights.lambda1": 2.0,
    "weights.lambda2": 0.2,
    "weights.delta": 0.1,
    "weights.u_star": 0.8,
    "weights.gamma": 0.6,
    "weights.beta": 0.7,
    "searchers.window": 8,
    "searchers.profiles": [{"id": 0}],
    "governance.allowed_funding": ["flash_loan"],
    "governance.max_set_size": 8,
    "governance.min_net_profit": 1.0,
    "producer.dishonesty_rate": 0.1,
    "producer.slash_penalty_multiple": 5,
    "balances.treasury_numeraire": 2_000_000.0,
    "balances.lender_numeraire": 2_000_000_000.0,
    "balances.external_numeraire": 2_000_000.0,
    "chaos.forced_revert_rate": 0.2,
    "seeds": [7],
    "mode": "off",
}


def _built(raw: dict) -> dict:
    """The built config's fields, the hashed mapping excluded."""
    config = from_dict(raw)
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config) if f.name != "raw"}


def test_alternatives_cover_every_key():
    assert set(ALTERNATIVES) == {path for path, *_ in FIELDS if "[]" not in path}


@pytest.mark.parametrize("path", sorted(ALTERNATIVES))
def test_every_scenario_key_is_read(path):
    """A key that is validated and hashed but changes nothing is dead."""
    baseline = _raw("baseline.yaml")
    section, _, key = path.rpartition(".")
    merged = from_dict(copy.deepcopy(baseline)).raw
    assert (merged.get(section, {}) if section else merged).get(key) != ALTERNATIVES[path]
    changed = _set(copy.deepcopy(baseline), path, copy.deepcopy(ALTERNATIVES[path]))
    assert _built(changed) != _built(baseline)


def test_readme_defaults_match_field_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("Defaults (applied when a key is omitted):", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", table, re.M)
    assert len(rows) == len(table.strip().splitlines()) - 2  # every body row parsed
    readme = {key: yaml.safe_load(default) for key, default in rows}
    assert len(readme) == len(rows), "one row per key"
    table_defaults = {path: default for path, default, _, _ in FIELDS if default is not None}
    assert json.dumps(readme, sort_keys=True) == json.dumps(table_defaults, sort_keys=True)
