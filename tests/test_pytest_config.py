"""The repository's pytest configuration must report a failing property test
as a failure, not stop the session."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    # Hypothesis's failure report imports libcst, and through it a name that
    # warns DeprecationWarning; the config turns DeprecationWarning into an
    # error everywhere else.
    pytest.importorskip("hypothesis")
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "1 failed" in output, output
