"""Importing the package and its CLI loads no numpy and no dataclasses, and
starts no thread.

Each case imports ``chainbalancer``, ``chainbalancer.cli`` and
``chainbalancer.runner`` in a fresh interpreter, which then reports what it
loaded and how many threads it runs. ``dataclasses``' import and decorators
took about 15 ms of each process's start-up (``python -X importtime``,
Python 3.11 on 2 cores), and it pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, which nothing else the package loads needs on Python 3.10 to
3.12.
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
import chainbalancer, chainbalancer.cli, chainbalancer.runner
print(json.dumps({
    "modules": sorted(sys.modules),
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
    assert "numpy" not in probe["modules"]


def test_import_loads_no_dataclasses(probe):
    assert "dataclasses" not in probe["modules"]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="checked on Python 3.10 to 3.12 only")
def test_import_loads_no_source_inspection_modules(probe):
    assert set(probe["modules"]).isdisjoint({"inspect", "ast", "dis", "tokenize"})


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_import_runs_one_thread(probe):
    assert probe["threads"] == 1
