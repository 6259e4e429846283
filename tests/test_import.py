"""Importing the package loads numpy's OpenBLAS without its thread pool.

Each case imports ``chainbalancer`` in a fresh interpreter, which then
reports its own thread count and whether its environment changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, os
before = dict(os.environ)
{first}
import chainbalancer
print(json.dumps({{
    "threads": len(os.listdir("/proc/self/task")),
    "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
    "environ_kept": dict(os.environ) == before,
}}))
"""

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts threads in /proc/self/task; OpenBLAS starts no pool on one core",
)


def _probe(first: str = "", variable: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if variable is not None:
        env["OPENBLAS_NUM_THREADS"] = variable
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(first=first)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_numpy_loads_single_threaded_and_environ_is_restored():
    assert _probe() == {"threads": 1, "variable": None, "environ_kept": True}


def test_user_setting_is_kept():
    assert _probe(variable="2") == {"threads": 2, "variable": "2", "environ_kept": True}


def test_numpy_imported_first_sets_nothing():
    probe = _probe(first="import numpy")
    assert probe["variable"] is None
    assert probe["environ_kept"]
