"""The pytest configuration reports a failing test as a failure.

`filterwarnings = ["error"]` also turns warnings raised inside pytest
plugins into errors. When a Hypothesis test fails, Hypothesis's plugin
imports libcst to write a patch of the failing example, and that import
warns that `mypy_extensions.TypedDict` is deprecated; unfiltered, the
warning aborts the whole session with an INTERNALERROR.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


def test_failing_given_test_reports_one_failure(pytester):
    pytest.importorskip("libcst")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    filters = pyproject["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
