"""Integrate a seeded corpus of runs and print a digest of their trajectories.

    python3 scripts/trajectory_digest.py

Run from the root of a checkout; it imports `src/tangleflow` and needs
nothing built, and uses only the standard library and numpy besides.  The
corpus is, in this order:

- every untangled bundled design (a graph classified untangled, or a weave
  with two or more tangle components) x seeds 1, 2 and 11 x t_max 50, 500
  and 1e5, all past the switch to Rosenbrock steps;
- three_blocks_6x6.weave, seed 11, to t_max 1e14, whose grid samples skip;
- every entangled bundled design x seeds 1, 2 and 11 at the default
  `FlowParams`, as `relax` runs them;
- every untangled bundled design, seed 11, to t_max 1e5 at grad_tol 1e-2,
  which converges inside the Rosenbrock phase;
- the checkerboard weaves 3x3, 4x6 and 12x12 (sign (-1)^(i+j) at blue
  thread i and red thread j) x seeds 1, 2 and 11 at the default
  `FlowParams`, as `relax` runs generated weaves;
- three untangled systems with heights on no height edge, whose end states
  keep the guard's height-sum test, seed 11 to t_max 500, past the switch
  to Rosenbrock steps: the alternating 1x4 and 4x1 weaves (a one-crossing
  thread has no edge) and the one-vertex graph with two shifted loops.

For each run the script hashes the bytes of every `Trajectory` column, in
the order of the dataclass fields, then `repr` of its status and
`RunStats`.  It prints the number of runs, of recorded rows and of errors,
and one sha256 over all of it in corpus order.  Two implementations that
give the same digest integrate every run of the corpus alike, bit for bit.
No run of the corpus should raise: an exception is printed with its run,
counted as an error, and makes the exit code 1.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tangleflow.designio import design_to_system, load_design  # noqa: E402
from tangleflow.dynamics import FlowParams, Trajectory, integrate  # noqa: E402
from tangleflow.model import (  # noqa: E402
    PeriodicQuotientGraph,
    WeaveDesign,
    build_entangled_system,
    build_weave_system,
    random_initial_configuration,
)
from tangleflow.topology import is_entangled  # noqa: E402

SEEDS = (1, 2, 11)
HORIZONS = (50.0, 500.0, 1e5)
CHECKERBOARDS = ((3, 3), (4, 6), (12, 12))
COLUMNS = [f.name for f in dataclasses.fields(Trajectory) if f.name not in ("system", "status", "stats")]


def corpus():
    systems = [(path.name, design_to_system(load_design(path))) for path in sorted((ROOT / "designs").glob("*"))]
    untangled = [(name, system) for name, system in systems if not is_entangled(system)]
    entangled = [(name, system) for name, system in systems if is_entangled(system)]
    for name, system in untangled:
        for seed in SEEDS:
            for t_max in HORIZONS:
                yield name, system, seed, FlowParams(t_max=t_max)
    yield "three_blocks_6x6.weave", dict(systems)["three_blocks_6x6.weave"], 11, FlowParams(t_max=1e14)
    for name, system in entangled:
        for seed in SEEDS:
            yield name, system, seed, FlowParams()
    for name, system in untangled:
        yield name, system, 11, FlowParams(t_max=1e5, grad_tol=1e-2)
    for n_blue, n_red in CHECKERBOARDS:
        sign = tuple(tuple((-1) ** (i + j) for j in range(n_red)) for i in range(n_blue))
        system = build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign))
        for seed in SEEDS:
            yield f"checker {n_blue}x{n_red}", system, seed, FlowParams()
    for n_blue, n_red in ((1, 4), (4, 1)):
        sign = tuple(tuple((-1) ** (i + j) for j in range(n_red)) for i in range(n_blue))
        system = build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign))
        yield f"alternating {n_blue}x{n_red}", system, 11, FlowParams(t_max=500.0)
    loops = PeriodicQuotientGraph(n_vertices=1, edges=((0, 0, (1, 0)), (0, 0, (0, 1))), lattice_basis=((1, 0), (0, 1)))
    yield "one vertex, two loops", build_entangled_system(loops, (1,)), 11, FlowParams(t_max=500.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    digest = hashlib.sha256()
    count = rows = errors = 0
    for name, system, seed, params in corpus():
        count += 1
        try:
            traj = integrate(system, random_initial_configuration(system, seed=seed), params)
            for column in COLUMNS:
                digest.update(np.ascontiguousarray(getattr(traj, column)).tobytes())
        except Exception:
            errors += 1
            print(f"error on {name} seed {seed} {params!r}:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        digest.update(repr((traj.status, traj.stats)).encode() + b"\n")
        rows += len(traj.t)
    print(f"runs {count}")
    print(f"rows {rows}")
    print(f"errors {errors}")
    print(f"sha256 {digest.hexdigest()}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
