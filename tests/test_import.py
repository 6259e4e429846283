"""Importing the package and its CLI loads no numpy and starts no thread.

Each case imports ``chainbalancer`` and ``chainbalancer.cli`` in a fresh
interpreter, which then reports what it loaded and how many threads it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, os, sys
import chainbalancer, chainbalancer.cli
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "threads": len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None,
}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(done.stdout)


def test_import_loads_no_numpy(probe):
    assert probe["numpy"] is False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_import_runs_one_thread(probe):
    assert probe["threads"] == 1
