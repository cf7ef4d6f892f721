"""tangleflow benchmark: one workload, run as a closed loop from one process.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  An operation is one in-process call to
``tangleflow.cli.main([...])`` with stdout captured; operations run one at a
time, and every output is checked (see checks.py).  A pass runs each of the
workload's operations once; passes repeat until ``--seconds`` is spent.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, writing the spans to
.perfbench_out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are the
ones listed in BENCHMARK.json.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# one BLAS/OpenMP thread, set before numpy is first imported
BLAS_PIN = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_REPEATS = 7
MIN_PASSES = 3  # untraced run
MIN_PAIRS = 2  # traced run: (untraced, traced) pass pairs
PROBE_BATCHES = 5
PROBE_CALLS = 20
PROBE_DT = 1e-4


class Ledger:
    """Outcome of every operation executed in this run."""

    def __init__(self, n_ops):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_stdout = [None] * n_ops

    def record(self, k, reason, stdout):
        self.attempted += 1
        if reason is None and self.first_stdout[k] not in (None, stdout):
            reason = "stdout differs from this operation's first run"
        if self.first_stdout[k] is None:
            self.first_stdout[k] = stdout
        if reason is not None:
            self.failed += 1
            self.failures.append((k, reason))


def execute(cli_main, op):
    """Run one operation; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(list(op.argv))
        except Exception:  # a crash is a failed operation, not a failed run
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def run_pass(ops, cli_main, ledger, check, before_op=None):
    """Run every operation once, checking each output; returns per-op
    (start, seconds).  ``before_op`` runs untimed before each operation."""
    times = []
    for k, op in enumerate(ops):
        if before_op is not None:
            before_op()
        at = time.perf_counter()
        code, elapsed, stdout, stderr = execute(cli_main, op)
        times.append((at, elapsed))
        reason = check(op, code, stdout)
        if reason is not None and stderr:
            reason += " | stderr: " + stderr.strip().splitlines()[-1]
        ledger.record(k, reason, stdout)
    return times


def measure_setup(name, seed, size, workdir):
    """Median seconds of SETUP_REPEATS set-ups, each in a fresh interpreter.
    Reported as measured: process start-up and imports vary in ways the
    reference kernel of speed.py does not track."""
    times = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        target.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size, str(target)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
        shutil.rmtree(target)
    return statistics.median(times)


def end_to_end(ops, seconds, ledger, speed):
    from tangleflow import cli
    from checks import check

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, cli.main, ledger, check, speed.sample_if_due))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + sum(t for _, t in passes[-1]) / 2 > seconds:
            break
    speed.sample()
    # each operation's median over the passes, every time scaled by the
    # machine speed around it (speed.py)
    per_op = [statistics.median(p[k][1] * speed.scale(p[k][0]) for p in passes) for k in range(len(ops))]
    return {
        "wall_s": math.fsum(per_op),
        "measured_wall_s": math.fsum(statistics.median(p[k][1] for p in passes) for k in range(len(ops))),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": statistics.quantiles(per_op, n=10, method="inclusive")[8] if len(ops) > 1 else per_op[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": len(passes),
    }


def probe(ops):
    """Per-call microseconds of the public dynamics functions on each of the
    workload's systems, averaged over the systems."""
    from tangleflow.designio import design_to_system, load_design
    from tangleflow.dynamics import energy_entangled, energy_weave, gradient, step
    from tangleflow.model import random_initial_configuration

    paths = sorted({op.argv[1] for op in ops})
    per_fn = {"gradient": [], "energy": [], "step": []}
    for path in paths:
        system = design_to_system(load_design(path))
        config = random_initial_configuration(system, seed=0)
        energy = energy_entangled if system.kind == "entangled-graph" else energy_weave
        calls = {
            "gradient": lambda: gradient(system, config),
            "energy": lambda: energy(system, config),
            "step": lambda: step(system, config, PROBE_DT),
        }
        for name, call in calls.items():
            batches = []
            for _ in range(PROBE_BATCHES):
                start = time.perf_counter()
                for _ in range(PROBE_CALLS):
                    call()
                batches.append((time.perf_counter() - start) / PROBE_CALLS)
            per_fn[name].append(statistics.median(batches) * 1e6)
    return {f"dynamics.{name}.us": statistics.fmean(v) for name, v in per_fn.items()}


def per_layer(ops, seconds, ledger, out_path, env):
    from tangleflow import cli
    from checks import check
    from tracing import COUNTERS, Tracer

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced.append(sum(t for _, t in run_pass(ops, cli.main, ledger, check)))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(sum(t for _, t in run_pass(ops, tracer.wrap("cli.main", cli.main), ledger, check)))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        now = time.perf_counter()
        if len(traced) >= MIN_PAIRS and now - start + (now - pair_start) / 2 > seconds:
            break

    per_pass = [t.metrics() for t in tracers]
    metrics = {}
    for name, first in per_pass[0].items():
        if name in COUNTERS or first is None:
            metrics[name] = first
            if any(m[name] != first for m in per_pass[1:]):
                print(f"warning: counter {name} differs between traced passes", file=sys.stderr)
        else:
            metrics[name] = statistics.median(m[name] for m in per_pass)
    for missing in tracers[0].missing:
        print(f"warning: {missing} is gone; its metrics are reported as missing", file=sys.stderr)
    metrics.update(probe(ops))
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["passes"] = len(traced)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "env": env,
        "span_fields": ["name", "start", "end", "parent", "op"],
        "passes": [{"spans": t.spans, "counts": t.counts} for t in tracers],
    }
    out_path.write_text(json.dumps(record) + "\n")
    return metrics


def environment(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN["OPENBLAS_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny runs in seconds, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "tangleflow" / "__init__.py").is_file() or not (ROOT / "designs").is_dir():
        print(f"error: {ROOT} holds no tangleflow source tree (src/tangleflow, designs/)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(BLAS_PIN)
    os.environ["TANGLEFLOW_LOG"] = "quiet"
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = environment(args)
        if args.trace:
            ops = workloads.setup(args.workload, args.seed, args.size, ROOT, workdir)
            ledger = Ledger(len(ops))
            out_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json"
            values = per_layer(ops, args.seconds, ledger, out_path, env)
            listed = spec["per_layer"]
        else:
            from speed import Speed

            setup_s = measure_setup(args.workload, args.seed, args.size, workdir)
            ops = workloads.setup(args.workload, args.seed, args.size, ROOT, workdir)
            ledger = Ledger(len(ops))
            speed = Speed()
            values = end_to_end(ops, args.seconds, ledger, speed)
            values["setup_s"] = setup_s
            values["note"] = (f"as measured: wall_s {values['measured_wall_s']} s; reference kernel "
                              f"median {speed.median_s()} s over {len(speed.seconds)} runs")
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, reason in list(dict.fromkeys(ledger.failures))[:10]:
        print(f"FAILED op {k} {' '.join(ops[k].argv[:2])}: {reason}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"operations {len(ops)} per pass, {values['passes']} passes")
    print(f"fail_frac {ledger.failed / ledger.attempted:.6g} ({ledger.failed} of {ledger.attempted} failed)")
    metrics = {}
    for entry in listed:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value} {entry['unit']}")
    if "note" in values:
        print(values["note"])
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
