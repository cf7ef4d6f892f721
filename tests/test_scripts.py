"""Smoke tests for the scripts under `scripts/` that serve as identity
oracles: each must keep running on the current library."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_digest_runs_its_corpus_without_errors():
    """`scripts/trajectory_digest.py` integrates its whole corpus (79 runs)
    and exits 0 with `errors 0`.  Its row count and sha256 are not pinned:
    the bits of a run, and so which grid samples skip, depend on the BLAS
    build."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trajectory_digest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [lines[0], lines[2]] == ["runs 79", "errors 0"]
    assert lines[3].startswith("sha256 ") and len(lines) == 4
