"""Time the descent flow's kernel on large checkerboard weaves.

    python3 scripts/time_large_weaves.py [--sizes 12 32 64] [--repeats 3]

Run from the root of a checkout; it imports `src/tangleflow` and needs
nothing built.  BLAS and OpenMP are pinned to one thread before numpy is
imported.  For each n x n checkerboard weave (n^2 vertices) it prints one
line with:

- `build_ms`: building the step loop's `_StepKernel` on a freshly built
  system (this includes building its two thread-cycle matrices), best of
  --repeats;
- `velocity_us`: one `_velocity` evaluation in the kernel's buffers, median
  of 200 calls (50 at n >= 48);
- `relax_s`: wall time of `tangleflow relax <design> --t-max 5 --seed 1`,
  in process, outputs discarded, best of --repeats;
- `accepted`, `rejected`: the RK4 steps of that run, counted on a second,
  untimed run of `integrate` that records every step (one guard call per
  attempt).

Step counts are exact and repeat; times depend on the machine and its load.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["TANGLEFLOW_LOG"] = "quiet"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from tangleflow import cli, dynamics  # noqa: E402
from tangleflow.designio import design_to_system, load_design  # noqa: E402
from tangleflow.model import random_initial_configuration  # noqa: E402


def checkerboard_text(n: int) -> str:
    rows = ("sign " + " ".join("+-"[(i + j) % 2] for j in range(n)) for i in range(n))
    return f"kind weave\nthreads {n} {n}\nspacing 1\n" + "\n".join(rows) + "\n"


def velocity_call(kernel, y):
    """A zero-argument call that evaluates the velocity at the stacked
    heights y in the kernel's buffers."""
    kernel.stage.flat[:] = y
    return lambda: dynamics._velocity(kernel, kernel.stage, kernel.k2)


def step_counts(path) -> tuple:
    """Accepted and rejected steps of `relax --t-max 5 --seed 1` on the design."""
    attempts = 0
    guard = dynamics._guard_reason

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return guard(*args)

    system = design_to_system(load_design(path))
    dynamics._guard_reason = counted
    try:
        traj = dynamics.integrate(
            system, random_initial_configuration(system, seed=1), dynamics.FlowParams(t_max=5.0, record_stride=1)
        )
    finally:
        dynamics._guard_reason = guard
    accepted = len(traj.samples) - 1
    return accepted, attempts - accepted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[12, 32, 64])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, nproc {os.cpu_count()}, BLAS threads 1")
    print(f"{'weave':>7} {'n':>5} {'build_ms':>9} {'velocity_us':>12} {'relax_s':>8} {'accepted':>8} {'rejected':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for size in args.sizes:
            path = Path(tmp) / f"checker_{size}.weave"
            path.write_text(checkerboard_text(size))
            builds = []
            for _ in range(args.repeats):
                system = design_to_system(load_design(path))
                start = time.perf_counter()
                kernel = dynamics._StepKernel(system)
                builds.append(time.perf_counter() - start)
            config = random_initial_configuration(system, seed=1)
            call = velocity_call(kernel, np.concatenate((config.z_blue, config.z_red)))
            with np.errstate(**dynamics._QUIET):
                calls = []
                for _ in range(50 if size >= 48 else 200):
                    start = time.perf_counter()
                    call()
                    calls.append(time.perf_counter() - start)
            runs = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["relax", str(path), "--t-max", "5", "--seed", "1"])
                runs.append(time.perf_counter() - start)
                if code != 0:
                    print(f"relax exited {code} on the {size}x{size} checkerboard", file=sys.stderr)
                    return 1
            accepted, rejected = step_counts(path)
            print(
                f"{size}x{size:<4} {size * size:>5} {min(builds) * 1e3:>9.2f} "
                f"{statistics.median(calls) * 1e6:>12.1f} {min(runs):>8.3f} {accepted:>8} {rejected:>8}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
