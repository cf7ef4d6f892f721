"""The test suite's own settings: a failing property test is reported as
one failure and the session goes on."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_falsified_property_test_does_not_end_the_session(tmp_path):
    """Hypothesis's report of a falsifying example imports modules that
    warn; under the suite's `filterwarnings = ["error"]` that warning must
    not raise inside pytest's report hook, which ends the session with an
    INTERNALERROR before the next test runs."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output, output
