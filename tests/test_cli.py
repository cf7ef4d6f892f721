"""Command-line interface: classify, relax, scaling, spectrum, verify."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tangleflow
from conftest import DESIGN_DIR, nan_error_ros_step
from tangleflow import cli, topology
from tangleflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def design(name) -> str:
    return str(DESIGN_DIR / name)


def test_classify_two_blocks(capsys):
    code, out, _ = run_cli(capsys, "classify", design("two_blocks_4x4.weave"))
    assert code == 0
    assert out == "untangled, K=2: W1={b1,b2|r1,r2}, W2={b3,b4|r3,r4}\n"


def test_classify_mixed_stack(capsys):
    code, out, _ = run_cli(capsys, "classify", design("mixed_stack_6x6.weave"))
    assert code == 0
    assert out == (
        "untangled, K=5: W1={b1,b2|r1,r2}, W2={b3|-}, W3={-|r3,r4}, "
        "W4={b4|-}, W5={b5,b6|r5,r6}\n"
    )


def test_classify_entangled_weave(capsys):
    code, out, _ = run_cli(capsys, "classify", design("checker_4x4.weave"))
    assert code == 0
    assert out == "entangled, K=1: W1={b1,b2,b3,b4|r1,r2,r3,r4}\n"


def test_classify_graphs(capsys):
    code, out, _ = run_cli(capsys, "classify", design("square_checker.graph"))
    assert code == 0 and out == "entangled\n"
    code, out, _ = run_cli(capsys, "classify", design("square_flat.graph"))
    assert code == 0 and out == "untangled\n"


def test_classify_deterministic(capsys):
    first = run_cli(capsys, "classify", design("three_blocks_6x6.weave"))
    second = run_cli(capsys, "classify", design("three_blocks_6x6.weave"))
    assert first == second


def test_relax_writes_outputs(capsys, tmp_path):
    traj_path = tmp_path / "out.csv"
    config_path = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "relax",
        design("entangled_pair.graph"),
        "--seed",
        "1",
        "--t-max",
        "1000",
        "--out-traj",
        str(traj_path),
        "--out-config",
        str(config_path),
    )
    assert code == 0
    assert "converged" in out
    header = traj_path.read_text().splitlines()[0]
    assert header == "t,energy,grad_norm,min_gap,M_B,M_R"
    payload = json.loads(config_path.read_text())
    assert len(payload["vertices"]) == 2


def test_relax_reports_a_rosenbrock_step_underflow(capsys, monkeypatch):
    nan_error_ros_step(monkeypatch)
    code, out, err = run_cli(capsys, "relax", design("three_blocks_6x6.weave"), "--t-max", "50", "--seed", "11")
    assert (code, out, err) == (1, "", "error: step size underflow at t=10.3297 (dt=1e-09)\n")


def test_relax_flag_passthrough(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "relax",
        design("untangled_pair.graph"),
        "--seed",
        "2",
        "--t-max",
        "1.5",
        "--grad-tol",
        "1e-8",
        "--dt-init",
        "1e-4",
    )
    assert code == 0
    assert "truncated" in out


def test_scaling_reports_cube_root_slope(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", design("untangled_pair.graph"), "--seed", "3",
        "--t-max", "2000",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("separation")]
    assert len(lines) == 1
    fields = dict(part.split("=") for part in lines[0].split()[1:])
    assert 0.30 <= float(fields["slope"]) <= 0.37
    assert float(fields["r_squared"]) >= 0.999


def test_scaling_rejects_entangled_design(capsys):
    code, _, err = run_cli(capsys, "scaling", design("entangled_pair.graph"))
    assert code == 1
    assert err != ""


def test_spectrum_graph(capsys):
    code, out, _ = run_cli(capsys, "spectrum", design("entangled_pair.graph"))
    assert code == 0
    assert out == "eigenvalue 0\neigenvalue 4\n"


def test_spectrum_weave(capsys):
    code, out, _ = run_cli(capsys, "spectrum", design("split_2x2.weave"))
    assert code == 0
    # the closed-form Kronecker sum of two 2-thread cycles, {0, 4} + {0, 4}
    assert out == "eigenvalue 0\neigenvalue 4\neigenvalue 4\neigenvalue 8\ncommutator_norm 0\n"


def test_spectrum_of_a_large_weave_builds_no_dense_matrix(capsys, monkeypatch, tmp_path):
    """`spectrum` on a 48x48 checkerboard (n = 2304) reads only the thread
    counts and the height edges: no family Laplacian is built, and the
    traced peak stays far below one n x n float matrix (42 MB)."""
    n = 48
    path = tmp_path / "checker.weave"
    rows = ("sign " + " ".join("+-"[(i + j) % 2] for j in range(n)) for i in range(n))
    path.write_text(f"kind weave\nthreads {n} {n}\nspacing 1\n" + "\n".join(rows) + "\n")
    systems = []
    load = cli._load_system

    def recorded(design_path):
        systems.append(load(design_path))
        return systems[-1]

    monkeypatch.setattr(cli, "_load_system", recorded)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "spectrum", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5e6
    assert not {"blue_laplacian", "red_laplacian", "laplacian"} & set(vars(systems[0]))
    lines = out.splitlines()
    assert len(lines) == n * n + 1
    assert lines[0] == "eigenvalue 0" and lines[-2:] == ["eigenvalue 8", "commutator_norm 0"]


def test_verify_passes_on_bundled_designs(capsys):
    for name in ["entangled_pair.graph", "checker_4x4.weave"]:
        code, out, _ = run_cli(capsys, "verify", design(name), "--t-max", "5")
        assert code == 0
        assert "ok" in out


@pytest.mark.parametrize(
    "name, runs, unique_limit",
    [
        ("untangled_pair.graph", 1, "unique_limit skipped (no converged limit inside t_max)"),
        ("entangled_pair.graph", 2, "unique_limit ok"),
    ],
)
def test_verify_integrates_the_second_seed_only_after_convergence(capsys, monkeypatch, name, runs, unique_limit):
    """The second seed's run is only compared with a converged first run,
    so a truncated first run skips it; the printed report is the same."""
    calls = []
    integrate = cli.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counted)
    code, out, err = run_cli(capsys, "verify", design(name))
    assert (code, err) == (0, "")
    assert len(calls) == runs
    assert out == (
        "energy_monotone ok\nbarycenter_conserved ok\ngap_floor ok\nsigns_preserved ok\n"
        f"{unique_limit}\n"
    )


def test_verify_reports_a_failed_check(capsys, monkeypatch):
    """A run whose energy rises at one row fails energy_monotone: the report
    names it on stdout and stderr, and verify exits 1."""
    integrate = cli.integrate

    def rising(*args, **kwargs):
        trajectory = integrate(*args, **kwargs)
        energy = trajectory.energy.copy()
        energy[-1] = energy[-2] + 1.0
        return dataclasses.replace(trajectory, energy=energy)

    monkeypatch.setattr(cli, "integrate", rising)
    code, out, err = run_cli(capsys, "verify", design("entangled_pair.graph"), "--t-max", "5")
    assert code == 1
    assert out == (
        "energy_monotone FAIL\nbarycenter_conserved ok\ngap_floor ok\nsigns_preserved ok\nunique_limit ok\n"
    )
    assert err == "error: verification failed: energy_monotone\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("scaling", "three_blocks_6x6.weave", "--t-max", "13"),
        ("relax", "three_blocks_6x6.weave", "--t-max", "13"),
        ("verify", "three_blocks_6x6.weave"),
        ("verify", "checker_4x4.weave"),
    ],
    ids=["scaling", "relax", "verify", "verify-two-runs"],
)
def test_one_decomposition_per_weave_op(capsys, monkeypatch, argv):
    """An op decomposes its weave once: `scaling`'s entangledness check, its
    run and its separation series, and both of `verify`'s runs on an
    entangled weave that converges, read one component table."""
    calls = []
    thread_classes = topology._thread_classes

    def counted(system):
        calls.append(system)
        return thread_classes(system)

    monkeypatch.setattr(topology, "_thread_classes", counted)
    command, name, *flags = argv
    code, _, err = run_cli(capsys, command, design(name), *flags)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_bad_design_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("kind banana\n")
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert err != ""
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "missing.graph"))
    assert code == 2
    # designs that parse but describe no valid graph
    good = (DESIGN_DIR / "untangled_pair.graph").read_text()
    for invalid in (
        good.replace("edge 1 0 1 0\n", "").replace("edge 0 1 0 0", "edge 0 0 1 0"),  # disconnected
        good.replace("edge 0 1 0 0", "edge 0 0 0 0"),  # zero-shift self-loop
        good.replace("lattice 1 0 0 1", "lattice 1 0 2 0"),  # dependent lattice
    ):
        bad.write_text(invalid)
        code, out, err = run_cli(capsys, "classify", str(bad))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("relax", "--t-max", "-5"),
        ("relax", "--t-max", "nan"),
        ("relax", "--grad-tol", "0"),
        ("relax", "--grad-tol", "inf"),
        ("relax", "--seed", "-1"),
        ("relax", "--dt-init", "1"),
        ("relax", "--dt-init", "nan"),
        ("relax", "--t-max", "inf"),
        ("verify", "--t-max", "-5"),
        ("verify", "--t-max", "inf"),
    ],
    ids=" ".join,
)
def test_out_of_range_flow_flag_exits_2(capsys, argv):
    command, flag, value = argv
    code, out, err = run_cli(capsys, command, design("entangled_pair.graph"), flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_and_keeps_no_values(capsys, tmp_path):
    """`main` reuses one parser per process.  Each call parses into a new
    namespace, so a flag given to one call never becomes a later call's
    default."""
    assert cli._build_parser() is cli._build_parser()
    argv = ("relax", design("entangled_pair.graph"), "--t-max", "1")
    default = run_cli(capsys, *argv)
    traj = tmp_path / "traj.csv"
    seeded = run_cli(capsys, *argv, "--seed", "5", "--grad-tol", "1e-3", "--out-traj", str(traj))
    assert seeded[0] == 0 and seeded[1] != default[1]
    traj.unlink()
    assert run_cli(capsys, *argv) == default
    assert run_cli(capsys, *argv, "--seed", "0") == default
    assert not traj.exists()


def test_scaling_infinite_t_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "scaling", design("untangled_pair.graph"), "--t-max", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scaling_short_t_max_exits_2(capsys):
    # the fit window [1.2, 12] holds too few samples: a usage error, found
    # after the run, with nothing printed
    code, out, err = run_cli(capsys, "scaling", design("untangled_pair.graph"), "--t-max", "12")
    assert code == 2
    assert out == ""
    assert err == "error: 15 samples in window [1.2, 12.0], need at least 20; use a longer --t-max\n"


@pytest.mark.parametrize("t_max", ["13", "14"])
def test_scaling_shortest_t_max_succeeds(capsys, t_max):
    # 13 is the shortest integer horizon whose fit window holds the 20
    # samples the fit needs; a change of stepping or sampling must not raise it
    code, out, err = run_cli(capsys, "scaling", design("untangled_pair.graph"), "--t-max", t_max)
    assert code == 0
    assert out.startswith("separation slope=") and out.count("\n") == 1
    assert err == ""


def test_scaling_converged_before_window_exits_2(capsys):
    # the pair converges at t ~ 1.7e14, so no longer horizon can help
    code, out, err = run_cli(capsys, "scaling", design("untangled_pair.graph"), "--t-max", "1e300")
    assert code == 2
    assert out == ""
    assert err == (
        "error: the flow converged at t=171817017033793.56, before the fit window "
        "[1e+299, 1e+300]; use a shorter --t-max\n"
    )


def test_scaling_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "scaling", design("untangled_pair.graph"), "--seed", "-1", "--t-max", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out-traj", "--out-config"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(
        capsys, "relax", design("entangled_pair.graph"), "--t-max", "1", flag, str(target)
    )
    assert code == 2
    assert out.startswith("status ")  # the results print before the write
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_unknown_subcommand_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv, logged",
    [
        (("classify", "split_2x2.weave"), ()),
        # the run switches to Rosenbrock steps at t ~ 100
        (
            ("scaling", "untangled_pair.graph", "--t-max", "300"),
            ("INFO tangleflow: switching to Rosenbrock steps at t=", "INFO tangleflow: Rosenbrock phase ended at t=300:"),
        ),
    ],
    ids=["classify", "scaling"],
)
def test_log_env_var_controls_stderr(capsys, monkeypatch, argv, logged):
    command, name, *rest = argv
    monkeypatch.setenv("TANGLEFLOW_LOG", "debug")
    _, out_debug, err_debug = run_cli(capsys, command, design(name), *rest)
    monkeypatch.setenv("TANGLEFLOW_LOG", "quiet")
    _, out_quiet, err_quiet = run_cli(capsys, command, design(name), *rest)
    assert out_debug == out_quiet  # stdout is byte-stable regardless of log level
    assert len(err_debug) >= len(err_quiet)
    for line in logged:
        assert line in err_debug and line not in err_quiet


def test_non_utf8_design_exits_2_without_a_traceback(tmp_path):
    bad = tmp_path / "bad.weave"
    bad.write_bytes(b"kind weave\nthreads 1 1\nspacing 1\nsign \xff\n")
    src = str(Path(tangleflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "tangleflow", "classify", str(bad)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: cannot read design file") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_module_entry_point():
    # the child process imports the same package the suite imports, however
    # that one was put on the path
    src = str(Path(tangleflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "tangleflow", "classify", design("layered_2x2.weave")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "untangled, K=3: W1={b1|-}, W2={-|r1,r2}, W3={b2|-}\n"
