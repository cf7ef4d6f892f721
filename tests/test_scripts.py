"""Smoke tests for the scripts under `scripts/` that serve as identity
oracles: each must keep running on the current library."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_digest_runs_its_corpus_without_errors():
    """`scripts/trajectory_digest.py` integrates its whole corpus (98 runs)
    and exits 0 with `errors 0`.  Its row count and sha256 are not pinned:
    the bits of a run, and so which grid samples skip, depend on the BLAS
    build."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trajectory_digest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [lines[0], lines[2]] == ["runs 98", "errors 0"]
    assert lines[3].startswith("sha256 ") and len(lines) == 4


def test_parse_corpus_runs_its_mutations_without_faults():
    """`scripts/parse_corpus.py` parses the bundled designs, its edge texts
    and 300 seeded mutations (319 texts) and exits 0: every text ends in a
    design or a parse error.  The sha256 is not pinned: any parser change
    that moves an error's message or position moves it."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parse_corpus.py"), "--mutations", "300"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "texts 319"
    assert lines[-1].startswith("sha256 ") and len(lines[-1].split()[1]) == 64


def test_time_large_weaves_runs():
    """`scripts/time_large_weaves.py` times its kernel build, velocity and
    `relax` run on a 4x4 checkerboard and exits 0 with one data row after
    its two header lines.  Its times are not pinned."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_large_weaves.py"), "--sizes", "4", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and lines[2].split()[:2] == ["4x4", "16"]
