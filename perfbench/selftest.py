"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They use the tiny size of each workload, so the whole file runs in about a
minute.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

import run
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seed=7):
    """Run the benchmark in a fresh interpreter; returns (exit code, stdout)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_listed_metric_is_printed_with_its_unit(self):
        for workload in workloads.NAMES:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, stdout = bench(workload, trace)
                    self.assertEqual(code, 0)
                    res = result(stdout)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(
                        {name: m["unit"] for name, m in res["metrics"].items()},
                        {m["name"]: m["unit"] for m in listed},
                    )
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_traced_counters_repeat_exactly(self):
        counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
        for workload in workloads.NAMES:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, stdout = bench(workload, 1)
                    self.assertEqual(code, 0)
                    runs.append({n: result(stdout)["metrics"][n]["value"] for n in counters})
                self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0]["topology.tangle_decomposition.calls"], 0)

    def test_step_counters_are_consistent(self):
        code, stdout = bench("separation", 1)
        metrics = {n: m["value"] for n, m in result(stdout)["metrics"].items()}
        calls = metrics["dynamics.integrate.calls"]
        accepted = metrics["dynamics.accepted_steps"]
        attempts = accepted + metrics["dynamics.rejected_steps"]
        self.assertEqual(metrics["dynamics.velocity_evals"], calls + 3 * attempts + accepted)
        # untangled runs never converge, so dt sits at dt_max = 0.1 almost all the way
        t_max = workloads.SIZES["tiny"]["separation"]["t_max"]
        self.assertGreaterEqual(accepted, calls * t_max / 0.1)


class CorruptedOutput(unittest.TestCase):
    def test_one_corrupted_output_counts_as_failed_and_the_run_goes_on(self):
        os.environ.update(run.BLAS_PIN)
        sys.path.insert(0, str(ROOT / "src"))
        workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        workdir.mkdir(parents=True)
        original = run.execute
        try:
            ops = workloads.setup("relax", 7, "tiny", ROOT, workdir)

            def corrupt_first(cli_main, op):
                code, elapsed, stdout, stderr = original(cli_main, op)
                if op is ops[0]:
                    stdout = stdout.replace("status converged", "status truncated")
                return code, elapsed, stdout, stderr

            run.execute = corrupt_first
            from speed import Speed

            ledger = run.Ledger(len(ops))
            values = run.end_to_end(ops, 0.5, ledger, Speed())
        finally:
            run.execute = original
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(ledger.attempted, values["passes"] * len(ops))
        self.assertEqual(ledger.failed, values["passes"])
        self.assertEqual({k for k, _reason in ledger.failures}, {0})
        self.assertGreater(ledger.failed / ledger.attempted, 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_source_tree(self):
        bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, stdout = bench("relax", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', stdout)


if __name__ == "__main__":
    unittest.main()
