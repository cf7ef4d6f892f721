"""Command-line interface: classify, relax, scaling, spectrum, verify."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tangleflow
from conftest import DESIGN_DIR
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
    lines = out.splitlines()
    assert len(lines) == 5  # 4 eigenvalues + commutator norm
    assert lines[-1] == "commutator_norm 0"
    values = sorted(float(line.split()[1]) for line in lines[:4])
    assert values == pytest.approx([0.0, 4.0, 4.0, 8.0], abs=1e-9)


def test_verify_passes_on_bundled_designs(capsys):
    for name in ["entangled_pair.graph", "checker_4x4.weave"]:
        code, out, _ = run_cli(capsys, "verify", design(name), "--t-max", "5")
        assert code == 0
        assert "ok" in out


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


def test_scaling_infinite_t_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "scaling", design("untangled_pair.graph"), "--t-max", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_log_env_var_controls_stderr(capsys, monkeypatch):
    monkeypatch.setenv("TANGLEFLOW_LOG", "debug")
    _, out_debug, err_debug = run_cli(capsys, "classify", design("split_2x2.weave"))
    monkeypatch.setenv("TANGLEFLOW_LOG", "quiet")
    _, out_quiet, err_quiet = run_cli(capsys, "classify", design("split_2x2.weave"))
    assert out_debug == out_quiet  # stdout is byte-stable regardless of log level
    assert len(err_debug) >= len(err_quiet)


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
