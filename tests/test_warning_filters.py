"""The suite's warning filters: every warning is an error, except the one
that hypothesis's pytest plugin raises while it reports a failing example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

GENERATED = '''\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_generated_failure(n):
    assert n < 0


def test_generated_pass():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_generated.py").write_text(GENERATED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfp", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    lines = out.splitlines()
    assert any(ln.startswith("FAILED") and "test_generated_failure" in ln
               for ln in lines), out
    assert any(ln.startswith("PASSED") and "test_generated_pass" in ln
               for ln in lines), out
    assert "1 failed, 1 passed" in out
