"""The repository's pytest settings report a failing property test as one
failure and go on with the rest of the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
"""


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    test_file = tmp_path / "test_sample.py"
    test_file.write_text(TESTS)
    # run in ``tmp_path``, so the example database stays out of the repository
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert proc.returncode == 1
