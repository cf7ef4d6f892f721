"""Smoke tests for the scripts under `scripts/` that serve as identity
oracles: each must keep running on the current library."""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """One run of `scripts/trajectory_digest.py --counts`: the finished
    process and the path of the counts it wrote."""
    counts = tmp_path_factory.mktemp("digest") / "counts.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trajectory_digest.py"), "--counts", str(counts)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return done, counts


def test_trajectory_digest_runs_its_corpus_without_errors(digest_run):
    """`scripts/trajectory_digest.py` integrates its whole corpus (98 runs)
    and exits 0 with `errors 0`.  Its row count and sha256 are not pinned:
    the bits of a run, and so which grid samples skip, depend on the BLAS
    build."""
    done, _ = digest_run
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [lines[0], lines[2]] == ["runs 98", "errors 0"]
    assert lines[3].startswith("sha256 ") and len(lines) == 4


def test_trajectory_corpus_keeps_the_pinned_counts(digest_run):
    """Every run of the trajectory corpus ends as `tests/data/
    trajectory_counts.json` records: the same status and `RunStats`, and a
    final t and energy within 1e-10 relative, about 70 times the spread
    between OpenBLAS kernels.  A change that moves a step of the flow moves
    a count here and re-pins the file.

    The 1e14 run of three_blocks_6x6 is checked for its status only.  At
    heights of ~5e4 its velocity loses ~6 % of its size to cancellation, so
    the error estimate of its Rosenbrock steps sits at the rounding level,
    and which of them are accepted depends on the last bits of the products,
    which differ between BLAS kernels and between summation orders."""
    done, counts = digest_run
    assert done.returncode == 0, done.stderr
    runs = json.loads(counts.read_text())
    pinned = json.loads((ROOT / "tests" / "data" / "trajectory_counts.json").read_text())
    key = ("name", "seed", "t_max", "grad_tol")
    assert [[run[k] for k in key] for run in runs] == [[run[k] for k in key] for run in pinned]
    for run, pin in zip(runs, pinned):
        label = [run[k] for k in key]
        assert run["status"] == pin["status"], label
        if run["t_max"] == 1e14:
            continue
        assert run["stats"] == pin["stats"], label
        for value in ("t", "energy"):
            assert math.isclose(float(run[value]), float(pin[value]), rel_tol=1e-10), (label, value)


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


def test_decomposition_corpus_subset_keeps_its_digest():
    """`scripts/decomposition_corpus.py` on the named subset `--exhaustive 3
    --random 400 --stacks 200` (1,289 weaves) decomposes every weave with no
    order violation and no error, and its sha256 is pinned: the records are
    integer `repr`s, so no BLAS build moves them.  A change that moves any
    decomposition of the subset moves the sha.  The full corpus (79,961
    weaves) stays the check to run by hand."""
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "decomposition_corpus.py"),
            "--exhaustive", "3", "--random", "400", "--stacks", "200",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "weaves 1289",
        "order violations 0",
        "errors 0",
        "sha256 6b8184644a572a38601aa9ba66546b6ad8442cdb92a1d7611bc7a80b33039bd9",
    ]


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
