"""The suite's pytest configuration keeps one failing test from ending the
session: with warnings as errors, a failing ``@given`` test must still be
reported as one failure, and the tests after it must still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_INNER = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_falsified(x):
    assert x < 5


def test_after_it():
    assert True
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_inner.py").write_text(_INNER)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
