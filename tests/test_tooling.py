"""The test settings in ``pyproject.toml`` let a failing run report every
failure: a warning raised while pytest or Hypothesis formats a failure must
not end the run."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n != 0


def test_a_failing_plain_test():
    assert False


def test_a_passing_test():
    pass
'''


def test_a_failing_hypothesis_property_does_not_end_the_run(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        filters = tomllib.load(f)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {w}\n" for w in filters))
    (tmp_path / "test_failing.py").write_text(FAILING_MODULE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "2 failed, 1 passed" in out, out
