"""The suite's pytest configuration: every warning is an error, yet a failing
hypothesis test is reported as one failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_stop_the_run(tmp_path):
    # reporting a failing @given test imports hypothesis.extra._patching,
    # which raises a third-party DeprecationWarning that the config must ignore
    (tmp_path / "test_two.py").write_text(ONE_FAILING_ONE_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
