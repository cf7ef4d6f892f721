"""Output checks, one per CLI command.  Each returns None when the output is
right and a one-line reason when it is not.

The expectations come from the workload's construction, not from the
program: Laplacians are rebuilt here from the thread cycles, signs are read
from the design, and classify verdicts are known from the generator.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SLOPE_RANGE = (0.30, 0.37)  # the acceptance-5 tolerances
MIN_R_SQUARED = 0.999
SPECTRUM_RTOL = 1e-9
GRAD_TOL = 1e-10  # the CLI default for relax --grad-tol


def _fields(line):
    head, *rest = line.split()
    return head, dict(item.split("=", 1) for item in rest)


def check_scaling(expect, stdout):
    lines = stdout.splitlines()
    if len(lines) != expect:
        return f"expected {expect} separation series, got {len(lines)}"
    for line in lines:
        name, fields = _fields(line)
        slope, r2 = float(fields["slope"]), float(fields["r_squared"])
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            return f"{name} slope {slope} outside {SLOPE_RANGE}"
        if not r2 >= MIN_R_SQUARED:
            return f"{name} r_squared {r2} below {MIN_R_SQUARED}"
    return None


def check_relax(expect, stdout):
    values = dict(line.split(" ", 1) for line in stdout.splitlines())
    if values.get("status") != "converged":
        return f"status {values.get('status')!r}, expected 'converged'"
    grad_norm = float(values["grad_norm"])
    if not grad_norm < GRAD_TOL:
        return f"grad_norm {grad_norm} not below {GRAD_TOL}"
    rows = Path(expect["traj"]).read_text().splitlines()
    last = rows[-1].split(",")
    if not rows[0].startswith("t,energy,grad_norm,") or last[0] != values["t_final"]:
        return "trajectory CSV does not end at the printed t_final"
    payload = json.loads(Path(expect["config"]).read_text())
    vertices = payload["vertices"]
    if len(vertices) != len(expect["sign"]):
        return f"config JSON has {len(vertices)} vertices, design has {len(expect['sign'])}"
    for v, (record, sign) in enumerate(zip(vertices, expect["sign"])):
        gap = record["z_blue"] - record["z_red"]
        if record["sign"] != sign or np.sign(gap) != sign:
            return f"config JSON loses the crossing sign at vertex {v}"
    return None


def check_verify(expect, stdout):
    lines = stdout.splitlines()
    if not lines:
        return "verify printed nothing"
    for line in lines:
        if not (line.endswith(" ok") or line.split(" ", 2)[1:2] == ["skipped"]):
            return f"verify line {line!r} is neither ok nor skipped"
    return None


def weave_laplacian(n_blue, n_red):
    """Adjacency-minus-degree matrix of the blue row cycles plus the red
    column cycles; vertex (i, j) is i * n_red + j."""
    n = n_blue * n_red
    L = np.zeros((n, n))
    cycles = [[i * n_red + j for j in range(n_red)] for i in range(n_blue)]
    cycles += [[i * n_red + j for i in range(n_blue)] for j in range(n_red)]
    for cycle in cycles:
        if len(cycle) < 2:
            continue
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            L[u, v] += 1.0
            L[v, u] += 1.0
            L[u, u] -= 1.0
            L[v, v] -= 1.0
    return L


def check_spectrum(expect, stdout):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "commutator_norm 0":
        return "missing 'commutator_norm 0'"
    if any(not line.startswith("eigenvalue ") for line in lines[:-1]):
        return "unexpected line among the eigenvalues"
    got = np.array([float(line.split(" ", 1)[1]) for line in lines[:-1]])
    want = np.linalg.eigvalsh(-weave_laplacian(*expect))
    if got.shape != want.shape:
        return f"{got.size} eigenvalues, expected {want.size}"
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    if err > SPECTRUM_RTOL * scale:
        return f"eigenvalues differ from eigh by {err:.3e} (scale {scale})"
    return None


def check_classify(expect, stdout):
    got = stdout.rstrip("\n")
    return None if got == expect else f"classify printed {got!r}, expected {expect!r}"


CHECKS = {
    "scaling": check_scaling,
    "relax": check_relax,
    "verify": check_verify,
    "spectrum": check_spectrum,
    "classify": check_classify,
}


def check(op, returncode, stdout):
    """Reason the operation failed, or None."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return CHECKS[op.kind](op.expect, stdout)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
