"""Import hygiene.

Every name a chainbalancer module, a test or a demo imports is used in that
file. No linter runs on the repo, so this is its one unused-import check. A
line marked `# noqa: F401` is exempt: it keeps a binding that something
outside the module replaces, and in the package that is only a binding
`perfbench/tracer.py`'s `TARGETS` rebinds in that module. The package root
is skipped, as its imports are its exports.

Every test and demo imports only the declared stack: the standard library,
the package, a sibling test module, and the `test` extra's PyYAML, pytest
and Hypothesis.

The leaf modules import no package module at run time (an import under
`if TYPE_CHECKING:` serves annotations only), so each is read and tested
on its own.

No package module imports `dataclasses` (`test_import.py` checks that a
fresh interpreter does not load it).
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainbalancer"
TRACER = ROOT / "perfbench" / "tracer.py"
DECLARED = {"chainbalancer", "yaml", "pytest", "hypothesis"}
TESTS_AND_DEMOS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])
LEAVES = ("units", "metrics", "report", "rewards")


def _shown(path: Path) -> str:
    """A package module by its name, a test or demo with its folder."""
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from json import dumps, loads  # noqa: F401 - rebound elsewhere\n"
        "from math import (\n"
        "    floor,\n"
        "    isqrt as root,\n"
        ")\n"
        "root(4)\n"
    )
    assert unused_imports(source) == ["os", "os", "floor"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + TESTS_AND_DEMOS,
    ids=_shown,
)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def exempt_imports(source: str) -> list[str]:
    """The names `source` imports on a line marked `# noqa: F401`, in import order."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
    ]


def tracer_rebinds(source: str) -> set[tuple[str, str]]:
    """(module, name) of every module-level binding a tracer's `TARGETS` rebinds;
    bindings on a class ("module.Class") are left out."""
    targets = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    rebinds = set()
    for entry in targets.elts:
        owners, attr = ast.literal_eval(entry.elts[1]), ast.literal_eval(entry.elts[2])
        rebinds |= {(owner, attr) for owner in owners if "." not in owner}
    return rebinds


def test_the_check_reads_the_tracer_targets():
    source = (
        "def _count(counts, result): pass\n"
        "TARGETS = (\n"
        '    ("a.f", ("a", "b"), "f", _count),\n'
        '    ("s.clone", ("state.ChainState",), "clone", None),\n'
        ")\n"
    )
    assert tracer_rebinds(source) == {("a", "f"), ("b", "f")}
    assert exempt_imports("from .a import f  # noqa: F401 - rebound\nfrom .a import g\n") == ["f"]


def test_each_exemption_is_a_binding_the_tracer_rebinds():
    """A `# noqa: F401` in the package stands only while the tracer still
    rebinds that name in that module; once it stops, the import is unused."""
    rebinds = tracer_rebinds(TRACER.read_text(encoding="utf-8"))
    exempt = [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in exempt_imports(path.read_text(encoding="utf-8"))
    ]
    assert [binding for binding in exempt if binding not in rebinds] == []


def imported_modules(source: str) -> list[str]:
    """The top-level modules `source` imports by absolute name, in import order."""
    modules: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [module.partition(".")[0] for module in modules]


def undeclared_imports(source: str, siblings: set[str]) -> list[str]:
    """The top-level modules `source` imports from outside the declared
    stack, the standard library and `siblings`, in import order."""
    allowed = DECLARED | siblings | set(sys.stdlib_module_names)
    return [top for top in imported_modules(source) if top not in allowed]


def test_the_check_finds_an_undeclared_import():
    source = (
        "import os, numpy as np\n"
        "from chainbalancer.units import SCALE\n"
        "from conftest import make_pool\n"
        "def f():\n"
        "    import scipy.stats\n"
    )
    assert undeclared_imports(source, {"conftest"}) == ["numpy", "scipy"]
    assert imported_modules("import dataclasses as dc\nfrom dataclasses import field\n") == [
        "dataclasses", "dataclasses"
    ]


@pytest.mark.parametrize("path", TESTS_AND_DEMOS, ids=_shown)
def test_imports_only_the_declared_stack(path):
    siblings = {p.stem for p in path.parent.glob("*.py")}
    assert undeclared_imports(path.read_text(encoding="utf-8"), siblings) == []


def runtime_package_imports(source: str) -> list[str]:
    """The package modules `source` imports outside `if TYPE_CHECKING:`, in
    import order: relative ones as written (".chain"), absolute ones by name."""
    tree = ast.parse(source)
    annotation_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    modules: list[str] = []
    for node in ast.walk(tree):
        if id(node) in annotation_only:
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "chainbalancer":
            modules.append(node.module)
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names if a.name.partition(".")[0] == "chainbalancer"]
    return modules


def test_the_check_finds_a_runtime_package_import():
    source = (
        "from __future__ import annotations\n"
        "import json, chainbalancer.units\n"
        "from typing import TYPE_CHECKING\n"
        "from . import market\n"
        "from .chain import Block\n"
        "if TYPE_CHECKING:\n"
        "    from .state import ChainState\n"
        "def f():\n"
        "    from chainbalancer.config import FIELDS\n"
    )
    assert runtime_package_imports(source) == [
        "chainbalancer.units", ".", ".chain", "chainbalancer.config"
    ]


@pytest.mark.parametrize("leaf", LEAVES)
def test_a_leaf_module_imports_no_package_module(leaf):
    source = (PACKAGE / f"{leaf}.py").read_text(encoding="utf-8")
    assert runtime_package_imports(source) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=_shown)
def test_no_package_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))
