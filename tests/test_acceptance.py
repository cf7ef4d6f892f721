"""End-to-end acceptance gate.

Each test exercises one numbered acceptance check at its stated tolerance and
prints a single machine-greppable line

    [acceptance k/8] <name>: PASS|FAIL — <measured detail>

bypassing output capture so the verdicts always appear in the run log.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import WEAVE_DESIGNS, load_system, random_graph_system, random_weave_system
from tangleflow.analysis import (
    commutation_check,
    compare_limits,
    eigendecompose,
    fit_power_law,
    flatness_series,
    separation_series,
)
from tangleflow.dynamics import (
    FlowParams,
    energy_entangled,
    energy_weave,
    gradient,
    integrate,
    stationarity_residual,
)
from tangleflow.model import (
    PeriodicQuotientGraph,
    WeaveDesign,
    build_entangled_system,
    build_weave_system,
    random_initial_configuration,
)
from tangleflow.topology import Classification, classify_entangled_graph, tangle_decomposition
from test_dynamics import A_STAR, finite_difference_gradient


def emit(capsys, k, name, ok, detail):
    line = f"[acceptance {k}/8] {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def checker_converged():
    system = load_system("checker_4x4.weave")
    runs = {}
    for seed in (5, 6):
        traj = integrate(
            system, random_initial_configuration(system, seed=seed), FlowParams(t_max=500.0)
        )
        runs[seed] = traj
    return system, runs


def test_classification_verdicts(capsys):
    t0 = time.perf_counter()
    verdicts = {
        name: classify_entangled_graph(load_system(name))
        for name in [
            "square_checker.graph",
            "honeycomb.graph",
            "square_flat.graph",
        ]
    }
    graph_ok = (
        verdicts["square_checker.graph"] is Classification.ENTANGLED
        and verdicts["honeycomb.graph"] is Classification.ENTANGLED
        and verdicts["square_flat.graph"] is Classification.UNTANGLED
    )

    expected_decomps = {
        "checker_4x4.weave": [((1, 2, 3, 4), (1, 2, 3, 4))],
        "chained_4x4.weave": [((1, 2, 3, 4), (1, 2, 3, 4))],
        "two_blocks_4x4.weave": [((1, 2), (1, 2)), ((3, 4), (3, 4))],
        "three_blocks_6x6.weave": [
            ((1, 2), (1, 2)),
            ((3, 4), (3, 4)),
            ((5, 6), (5, 6)),
        ],
        "split_2x2.weave": [((1, 2), ()), ((), (1, 2))],
        "layered_2x2.weave": [((1,), ()), ((), (1, 2)), ((2,), ())],
        "mixed_stack_6x6.weave": [
            ((1, 2), (1, 2)),
            ((3,), ()),
            ((), (3, 4)),
            ((4,), ()),
            ((5, 6), (5, 6)),
        ],
    }
    weave_ok = True
    for name, expected in expected_decomps.items():
        decomp = tangle_decomposition(load_system(name))
        got = [(c.blue, c.red) for c in decomp.components]
        entangled = decomp.k == 1
        should_be_entangled = name in ("checker_4x4.weave", "chained_4x4.weave")
        weave_ok &= got == expected and entangled == should_be_entangled
    elapsed = time.perf_counter() - t0
    ok = graph_ok and weave_ok and elapsed < 1.0
    emit(
        capsys, 1, "classification fidelity",
        ok,
        f"graph verdicts ok={graph_ok}, weave decompositions ok={weave_ok}, "
        f"elapsed={elapsed:.2f}s (budget 1s)",
    )


def test_pair_stationary_point(capsys):
    t0 = time.perf_counter()
    system = load_system("entangled_pair.graph")
    traj = integrate(
        system, random_initial_configuration(system, seed=1), FlowParams(t_max=1e3)
    )
    final = traj.samples[-1].config
    sup_err = max(
        np.max(np.abs(final.z_blue - np.array([A_STAR, -A_STAR]))),
        np.max(np.abs(final.z_red - np.array([-A_STAR, A_STAR]))),
    )
    residual = stationarity_residual(system, final)
    elapsed = time.perf_counter() - t0
    ok = (
        traj.status == "converged"
        and sup_err <= 1e-4
        and residual <= 1e-8
        and elapsed < 5.0
    )
    emit(
        capsys, 2, "closed-form stationary point",
        ok,
        f"sup_err={sup_err:.3e} (tol 1e-4), residual={residual:.3e} (tol 1e-8), "
        f"status={traj.status}, elapsed={elapsed:.2f}s (budget 5s)",
    )


def test_flow_invariants_bulk(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    violations = []
    for trial in range(50):
        if trial % 2 == 0:
            system = random_graph_system(rng, max_vertices=12)
            energy_fn = energy_entangled
        else:
            system = random_weave_system(rng, max_threads=6)
            energy_fn = energy_weave
        config = random_initial_configuration(system, seed=int(rng.integers(1 << 30)))
        e0 = energy_fn(system, config)
        m0 = float(np.sum(config.z_blue + config.z_red))
        traj = integrate(system, config, FlowParams(t_max=1.5, record_stride=1))
        energies = [s.energy for s in traj.samples]
        if not all(b <= a + 1e-12 * abs(e0) for a, b in zip(energies, energies[1:])):
            violations.append((trial, "energy increased"))
        for s in traj.samples:
            if abs(float(np.sum(s.config.z_blue + s.config.z_red)) - m0) > 1e-8:
                violations.append((trial, "barycenter drift"))
                break
            if not np.all(np.sign(s.config.z_blue - s.config.z_red) == system.sign):
                violations.append((trial, "sign flip"))
                break
            if s.min_gap < 0.5 / e0:
                violations.append((trial, "gap floor"))
                break
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120.0
    emit(
        capsys, 3, "energy monotonicity and conservation",
        ok,
        f"50 randomized systems, violations={violations or 'none'}, "
        f"elapsed={elapsed:.1f}s (budget 120s)",
    )


def test_gradient_finite_difference_agreement(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        if trial % 2 == 0:
            system = random_graph_system(rng, max_vertices=10)
            energy_fn = energy_entangled
        else:
            system = random_weave_system(rng, max_threads=5)
            energy_fn = energy_weave
        config = random_initial_configuration(system, seed=int(rng.integers(1 << 30)))
        g_blue, g_red = gradient(system, config)
        fd_blue, fd_red = finite_difference_gradient(system, config, energy_fn)
        scale = max(np.max(np.abs(g_blue)), np.max(np.abs(g_red)))
        err = max(np.max(np.abs(g_blue - fd_blue)), np.max(np.abs(g_red - fd_red)))
        worst = max(worst, err / scale)
    ok = worst <= 1e-6
    emit(
        capsys, 4, "gradient correctness",
        ok,
        f"20 random (system, config) pairs, worst relative error={worst:.3e} (tol 1e-6)",
    )


def test_cube_root_separation_law(capsys):
    results = []
    budgets_ok = True
    flatness_values = {}

    t0 = time.perf_counter()
    pair = load_system("untangled_pair.graph")
    traj = integrate(
        pair, random_initial_configuration(pair, seed=11), FlowParams(t_max=1e5)
    )
    for series in separation_series(traj):
        report = fit_power_law(series, (1e3, 1e5))
        results.append((f"pair/{series.name}", report.slope, report.r_squared))
    for component in ("blue", "red"):
        flatness_values[f"pair/{component}"] = float(
            flatness_series(traj, component).values[-1]
        )
    pair_elapsed = time.perf_counter() - t0
    budgets_ok &= pair_elapsed < 300.0

    t0 = time.perf_counter()
    weave = load_system("three_blocks_6x6.weave")
    wtraj = integrate(
        weave, random_initial_configuration(weave, seed=11), FlowParams(t_max=1e5)
    )
    for series in separation_series(wtraj):
        report = fit_power_law(series, (1e3, 1e5))
        results.append((f"weave/{series.name}", report.slope, report.r_squared))
    decomp = tangle_decomposition(weave)
    for k in range(1, decomp.k + 1):
        flatness_values[f"weave/W{k}"] = float(flatness_series(wtraj, k).values[-1])
    weave_elapsed = time.perf_counter() - t0
    budgets_ok &= weave_elapsed < 300.0

    slopes_ok = all(0.30 <= slope <= 0.37 for _, slope, _ in results)
    r2_ok = all(r2 >= 0.999 for _, _, r2 in results)
    flat_ok = all(v <= 1e-2 for v in flatness_values.values())
    ok = slopes_ok and r2_ok and flat_ok and budgets_ok
    slope_txt = ", ".join(f"{n}: slope={s:.4f} r2={r:.6f}" for n, s, r in results)
    flat_txt = ", ".join(f"{n}={v:.3e}" for n, v in flatness_values.items())
    emit(
        capsys, 5, "cube-root separation law",
        ok,
        f"{slope_txt}; flatness at t_max (tol 1e-2): {flat_txt}; "
        f"runtimes {pair_elapsed:.0f}s/{weave_elapsed:.0f}s (budget 300s each). "
        "Interlocked weave components keep their equilibrium-gap corrugation, so "
        "their flatness settles near the gap scale rather than below 1e-2; "
        "the flatness sub-check for the weave is expected to fail.",
    )


def test_limit_uniqueness_and_homotopy_control(capsys, checker_converged):
    graph = load_system("square_checker.graph")
    params = FlowParams(t_max=300.0)
    g_runs = [
        integrate(graph, random_initial_configuration(graph, seed=s), params)
        for s in (1, 2)
    ]
    ok_graph, res_graph = compare_limits(g_runs[0], g_runs[1], tol=1e-4)

    wsystem, wruns = checker_converged
    ok_weave, res_weave = compare_limits(wruns[5], wruns[6], tol=1e-4)

    # negative control: flip one crossing sign -> different homotopy class
    flipped_sign = np.array(graph.sign, dtype=int)
    flipped_sign[0] *= -1
    flipped_graph = build_entangled_system(graph.graph, tuple(flipped_sign))
    f_run = integrate(
        flipped_graph, random_initial_configuration(flipped_graph, seed=1), params
    )
    _, res_control_graph = compare_limits(g_runs[0], f_run, tol=1e-4)

    rows = [list(r) for r in wsystem.design.sign]
    rows[0][0] *= -1
    flipped_weave = build_weave_system(
        WeaveDesign(
            n_blue=wsystem.design.n_blue,
            n_red=wsystem.design.n_red,
            sign=tuple(tuple(r) for r in rows),
            spacing=wsystem.design.spacing,
        )
    )
    fw_run = integrate(
        flipped_weave,
        random_initial_configuration(flipped_weave, seed=5),
        FlowParams(t_max=500.0),
    )
    _, res_control_weave = compare_limits(wruns[5], fw_run, tol=1e-4)

    ok = (
        ok_graph
        and ok_weave
        and res_control_graph > 0.1
        and res_control_weave > 0.1
    )
    emit(
        capsys, 6, "unique limit per homotopy class",
        ok,
        f"same-class residuals: graph={res_graph:.3e}, weave={res_weave:.3e} (tol 1e-4); "
        f"one-flip controls: graph={res_control_graph:.3f}, weave={res_control_weave:.3f} "
        "(must exceed 0.1)",
    )


def test_spectral_contracts(capsys):
    commutators = {
        name: commutation_check(load_system(name)) for name in WEAVE_DESIGNS
    }
    comm_ok = all(v == 0.0 for v in commutators.values())

    ring = PeriodicQuotientGraph(
        n_vertices=4,
        edges=((0, 1, (0, 0)), (1, 2, (0, 0)), (2, 3, (0, 0)), (3, 0, (1, 0))),
        lattice_basis=((1.0, 0.0), (0.0, 1.0)),
    )
    ring_system = build_entangled_system(ring, (1, -1, 1, -1))
    ring_err = float(
        np.max(
            np.abs(
                eigendecompose(ring_system.laplacian).eigenvalues
                - np.array([0.0, 2.0, 2.0, 4.0])
            )
        )
    )
    pair_err = float(
        np.max(
            np.abs(
                eigendecompose(load_system("entangled_pair.graph").laplacian).eigenvalues
                - np.array([0.0, 4.0])
            )
        )
    )
    ok = comm_ok and ring_err <= 1e-10 and pair_err <= 1e-10
    emit(
        capsys, 7, "spectral contracts",
        ok,
        f"commutator exactly zero on {len(commutators)} bundled weaves: {comm_ok}; "
        f"4-cycle eigenvalue error={ring_err:.2e}, double-edge pair error={pair_err:.2e} "
        "(tol 1e-10)",
    )


def test_symmetry_equivariance(capsys, checker_converged):
    system, runs = checker_converged
    traj = runs[5]
    final = traj.samples[-1].config
    n = 4
    # quarter-turn thread permutation (i,j) -> (j, n-1-i); rotating the diagram
    # exchanges the two thread families, so equivariance swaps the height copies
    quarter = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            quarter[i * n + j] = j * n + (n - 1 - i)
    quarter = np.array(quarter)
    rot_err = max(
        float(np.max(np.abs(final.z_blue[quarter] - final.z_red))),
        float(np.max(np.abs(final.z_red[quarter] - final.z_blue))),
    )
    # diagonal translation preserves the sign pattern without swapping families
    shift = np.array([((i + 1) % n) * n + ((j + 1) % n) for i in range(n) for j in range(n)])
    trans_err = max(
        float(np.max(np.abs(final.z_blue[shift] - final.z_blue))),
        float(np.max(np.abs(final.z_red[shift] - final.z_red))),
    )
    ok = traj.status == "converged" and rot_err <= 1e-6 and trans_err <= 1e-6
    emit(
        capsys, 8, "symmetry equivariance",
        ok,
        f"quarter-turn (family-swapping) error={rot_err:.3e}, diagonal translation "
        f"error={trans_err:.3e} (tol 1e-6), status={traj.status}",
    )
