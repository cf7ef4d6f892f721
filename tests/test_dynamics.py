"""Energy, gradient, and guarded adaptive integration of the descent flow."""
from __future__ import annotations

import logging
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    GRAPH_DESIGNS,
    WEAVE_DESIGNS,
    dense_velocity,
    kernel_velocity,
    load_system,
    nan_error_ros_step,
    random_graph_system,
    random_weave_system,
)
from tangleflow import dynamics
from tangleflow.analysis import separation_series
from tangleflow.dynamics import (
    FlowParams,
    RunStats,
    energy_entangled,
    energy_weave,
    gradient,
    integrate,
    stationarity_residual,
    step,
)
from tangleflow.errors import (
    GapGuardTripped,
    InvalidInitial,
    InvalidParameter,
    MismatchedVertexSet,
    NonFiniteHeights,
    StepUnderflow,
    ZeroGap,
)
from tangleflow.model import (
    Configuration,
    WeaveDesign,
    _laplacian,
    build_weave_system,
    make_configuration,
    random_initial_configuration,
)
from tangleflow.topology import tangle_decomposition

A_STAR = (1.0 / 32.0) ** (1.0 / 3.0)  # stationary height of the entangled pair


def pair_config(a: float):
    system = load_system("entangled_pair.graph")
    config = make_configuration(system, (a, -a), (-a, a))
    return system, config


def brute_force_energy(system, config) -> float:
    """Independent summation oracle: explicit loops, no Laplacian matrices."""
    B = np.asarray(system.lattice_basis, dtype=float)
    total = 0.0
    for u, v, (sx, sy) in system.edges:
        shift = sx * B[0] + sy * B[1]
        total += float(np.sum((config.x[v] + shift - config.x[u]) ** 2))
    if system.kind == "weave":
        for thread in system.blue_threads:
            m = len(thread)
            for k in range(m):
                u, v = thread[k], thread[(k + 1) % m]
                if m == 1:
                    continue
                total += (config.z_blue[u] - config.z_blue[v]) ** 2
        for thread in system.red_threads:
            m = len(thread)
            for k in range(m):
                u, v = thread[k], thread[(k + 1) % m]
                if m == 1:
                    continue
                total += (config.z_red[u] - config.z_red[v]) ** 2
    else:
        for u, v, _ in system.edges:
            total += (config.z_blue[u] - config.z_blue[v]) ** 2
            total += (config.z_red[u] - config.z_red[v]) ** 2
    for v in range(system.n_vertices):
        total += 1.0 / abs(config.z_blue[v] - config.z_red[v])
    return total


def energy_of(system):
    """The public energy function of the system's kind."""
    return energy_weave if system.kind == "weave" else energy_entangled


def end_state_energy(system, config) -> float:
    """The energy `_end_state` gives config, as recorded on a sample."""
    kernel = dynamics._StepKernel(system, config)
    with np.errstate(**dynamics._QUIET):
        end = dynamics._end_state(kernel, kernel.y, kernel.v, np.inf)
    return end[1]


def test_pair_energy_closed_form():
    system, config = pair_config(0.3)
    # planar term 0.5 (two half-period edges), quadratic 16 a^2, repulsion 1/a
    expected = 0.5 + 16 * 0.09 + 1.0 / 0.3
    assert energy_entangled(system, config) == pytest.approx(expected, rel=1e-14)


def test_energy_matches_brute_force_summation():
    """On random systems, and on every bundled design with all heights
    shifted by 1e4, where a formula that cancels (the quadratic form z L z,
    or the identity y.v = R - 2 Q) is off by up to 6.2e-9 while squared edge
    differences stay within rounding of the oracle: both the public energy
    and the energy `_end_state` records."""
    rng = np.random.default_rng(5)
    for _ in range(6):
        system = random_graph_system(rng, max_vertices=8)
        config = random_initial_configuration(system, seed=int(rng.integers(1 << 30)))
        assert energy_entangled(system, config) == pytest.approx(
            brute_force_energy(system, config), rel=1e-12
        )
    for _ in range(6):
        system = random_weave_system(rng, max_threads=5)
        config = random_initial_configuration(system, seed=int(rng.integers(1 << 30)))
        assert energy_weave(system, config) == pytest.approx(
            brute_force_energy(system, config), rel=1e-12
        )
    for name in GRAPH_DESIGNS + WEAVE_DESIGNS:
        system = load_system(name)
        for seed in range(5):
            config = random_initial_configuration(system, seed=seed)
            shifted = Configuration(x=config.x, z_blue=config.z_blue + 1e4, z_red=config.z_red + 1e4)
            reference = brute_force_energy(system, shifted)
            assert energy_of(system)(system, shifted) == pytest.approx(reference, rel=1e-13)
            assert end_state_energy(system, shifted) == pytest.approx(reference, rel=1e-13)


def test_energy_kind_dispatch_and_zero_gap():
    system, config = pair_config(0.3)
    with pytest.raises(TypeError):
        energy_weave(system, config)
    weave = load_system("split_2x2.weave")
    with pytest.raises(TypeError, match="expected an entangled-graph system, got kind='weave'"):
        energy_entangled(weave, random_initial_configuration(weave, 1))
    broken = Configuration(
        x=config.x, z_blue=np.array([0.5, -0.3]), z_red=np.array([0.5, 0.3])
    )
    with pytest.raises(ZeroGap) as err:
        energy_entangled(system, broken)
    assert err.value.vertex == 0


def test_uniform_gap_repulsion_value():
    system = load_system("split_2x2.weave")
    config = make_configuration(system, (0.8,) * 4, (-0.2,) * 4)
    # flat threads: no quadratic term; repulsion |V| / gap on top of the grid term
    assert energy_weave(system, config) == pytest.approx(
        system.planar_energy + 4.0 / 1.0, rel=1e-14
    )


def test_weave_energy_builds_no_dense_matrix():
    """The energy of a 48x48 checkerboard (n = 2304) reads only the height
    edges: no family Laplacian is built, and the traced peak stays far below
    one n x n float matrix (42 MB)."""
    n = 48
    sign = tuple(tuple(1 if (i + j) % 2 == 0 else -1 for j in range(n)) for i in range(n))
    system = build_weave_system(WeaveDesign(n_blue=n, n_red=n, sign=sign))
    config = random_initial_configuration(system, seed=0)
    tracemalloc.start()
    try:
        energy = energy_weave(system, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert not {"blue_laplacian", "red_laplacian", "laplacian"} & set(vars(system))
    assert energy == pytest.approx(brute_force_energy(system, config), rel=1e-13)


def test_energy_at_the_systems_own_layout_reads_its_cached_planar_energy(monkeypatch):
    """Configurations on the system's own planar layout, which every
    configuration the program builds carries, take the cached
    `planar_energy`: `energy_weave`, `step` and `integrate` never call
    `planar_term` on them, and the energy is the same bit for bit.  Any
    other layout still gets its own planar term."""
    n = 8
    sign = tuple(tuple(1 if (i + j) % 2 == 0 else -1 for j in range(n)) for i in range(n))
    system = build_weave_system(WeaveDesign(n_blue=n, n_red=n, sign=sign))
    config = random_initial_configuration(system, seed=0)
    y = np.concatenate((config.z_blue, config.z_red))
    expected = dynamics._energy(
        dynamics._stacked_edges(system), y, np.abs(config.z_blue - config.z_red), system.planar_term(config.x)
    )
    assert system.planar_energy == system.planar_term(system.planar_x)
    calls = []
    planar_term = system.planar_term
    monkeypatch.setattr(system, "planar_term", lambda x: calls.append(x) or planar_term(x))
    assert energy_weave(system, config) == expected
    copied = Configuration(x=system.planar_x.copy(), z_blue=config.z_blue, z_red=config.z_red)
    assert energy_weave(system, copied) == expected
    step(system, config, 1e-4)
    integrate(system, config, FlowParams(t_max=0.01))
    assert calls == []
    moved = Configuration(x=config.x + 0.5, z_blue=config.z_blue, z_red=config.z_red)
    assert energy_weave(system, moved) == pytest.approx(brute_force_energy(system, moved), rel=1e-13)
    assert len(calls) == 1


def test_gradient_at_closed_form_stationary_point():
    system, config = pair_config(A_STAR)
    g_blue, g_red = gradient(system, config)
    assert np.max(np.abs(g_blue)) <= 1e-8
    assert np.max(np.abs(g_red)) <= 1e-8
    assert stationarity_residual(system, config) <= 1e-8


def test_gradient_uniform_gap_pure_repulsion():
    system = load_system("split_2x2.weave")
    config = make_configuration(system, (0.8,) * 4, (-0.2,) * 4)
    g_blue, g_red = gradient(system, config)
    assert np.allclose(g_blue, 1.0)  # S/d^2 with d = 1, Laplacian part zero
    assert np.allclose(g_red, -1.0)


def finite_difference_gradient(system, config, energy_fn, eps=1e-5):
    n = system.n_vertices
    fd_blue = np.zeros(n)
    fd_red = np.zeros(n)
    zb, zr = np.array(config.z_blue), np.array(config.z_red)
    for v in range(n):
        for arr, out in [(zb, fd_blue), (zr, fd_red)]:
            orig = arr[v]
            arr[v] = orig + eps
            e_plus = energy_fn(system, Configuration(x=config.x, z_blue=zb.copy(), z_red=zr.copy()))
            arr[v] = orig - eps
            e_minus = energy_fn(system, Configuration(x=config.x, z_blue=zb.copy(), z_red=zr.copy()))
            arr[v] = orig
            out[v] = -(e_plus - e_minus) / (2 * eps)  # descent direction
    return fd_blue, fd_red


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for trial in range(8):
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
        assert err / scale <= 1e-6


def test_step_euler_consistency():
    system = load_system("entangled_pair.graph")
    config = make_configuration(system, (0.6, -0.5), (-0.55, 0.62))
    g_blue, g_red = gradient(system, config)
    errs = []
    for dt in [1e-3, 5e-4]:
        new = step(system, config, dt)
        err = max(
            np.max(np.abs(new.z_blue - (config.z_blue + dt * g_blue))),
            np.max(np.abs(new.z_red - (config.z_red + dt * g_red))),
        )
        errs.append(err)
    # RK4 differs from the Euler step at second order in dt
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_step_fixed_point_at_stationary_config():
    system, config = pair_config(A_STAR)
    new = step(system, config, 1e-2)
    assert np.max(np.abs(new.z_blue - config.z_blue)) <= 1e-12
    assert np.max(np.abs(new.z_red - config.z_red)) <= 1e-12


def test_step_gap_guard_trips_on_oversized_step():
    system = load_system("entangled_pair.graph")
    # near-touching start: the repulsion spike makes the oversized step
    # overshoot straight through zero gap (hand-computed final height ~ -1711)
    config = make_configuration(system, (0.05, -0.05), (-0.05, 0.05))
    with pytest.raises(GapGuardTripped):
        step(system, config, 1.0)


def test_step_rejects_a_dt_that_is_not_a_real_number():
    system = load_system("entangled_pair.graph")
    config = make_configuration(system, (0.6, -0.5), (-0.55, 0.62))
    for dt in ("a", None, True, 1j):  # "a" and None ended in raw TypeErrors, True stepped by 1
        with pytest.raises(InvalidParameter, match=f"dt must be an int or float, got {dt!r}"):
            step(system, config, dt)
    # a zero step returned the input, and a negative, NaN or infinite one
    # tripped the guard; each is a bad parameter, as in `FlowParams`
    # 10**400 ended in a raw OverflowError from 0.5 * dt
    for dt in (0.0, -0.0, 0, -1e-3, -0.1, np.nan, np.inf, -np.inf, np.float64(np.nan), np.int64(-1), 10**400):
        with pytest.raises(InvalidParameter, match=f"^dt must be positive and finite, got {re.escape(repr(dt))}$"):
            step(system, config, dt)
    assert not np.array_equal(step(system, config, np.float32(1e-3)).z_blue, config.z_blue)


def test_integrate_pair_converges_to_closed_form():
    system = load_system("entangled_pair.graph")
    config = random_initial_configuration(system, seed=1)
    traj = integrate(system, config, FlowParams(t_max=1e3))
    assert traj.status == "converged"
    final = traj.samples[-1].config
    assert np.max(np.abs(final.z_blue - np.array([A_STAR, -A_STAR]))) <= 1e-4
    assert np.max(np.abs(final.z_red - np.array([-A_STAR, A_STAR]))) <= 1e-4
    assert stationarity_residual(system, final) <= 1e-8


@pytest.mark.parametrize("n_blue, n_red", [(2, 2), (4, 4), (4, 6), (6, 8), (8, 8), (12, 12)])
def test_even_checkerboards_relax_to_the_closed_form_limit(n_blue, n_red):
    """An even checkerboard weave relaxes, at the default `FlowParams`, to
    z_blue = sign c and z_red = -sign c with c = 32^(-1/3), up to one
    vertical shift.  Each height's two thread neighbours sit at the
    opposite height, so the stretching pulls it toward the plane by
    2 * 2 * 2c = 8c, and the repulsion of its gap 2c pushes it away by
    1 / (2c)^2: they balance at c^3 = 1/32.  Checked at seeds 1 to 4 within
    1e-8; the runs end within 3.8e-10."""
    system = alternating_weave(n_blue, n_red)
    c = 32.0 ** (-1.0 / 3.0)
    limit = np.concatenate((system.sign * c, -system.sign * c))
    for seed in (1, 2, 3, 4):
        traj = integrate(system, random_initial_configuration(system, seed=seed), FlowParams())
        assert traj.status == "converged"
        offset = traj.heights[-1] - limit
        assert np.max(np.abs(offset - offset.mean())) <= 1e-8, seed


@pytest.mark.parametrize("t_max", [1000.0, 1e5])
def test_integrate_untangled_pair_follows_cube_root_growth(t_max):
    system = load_system("untangled_pair.graph")
    config = make_configuration(system, (0.5, 0.5), (-0.5, -0.5))
    traj = integrate(system, config, FlowParams(t_max=t_max))
    assert traj.status == "truncated"
    final = traj.samples[-1]
    gap = float(final.config.z_blue[0] - final.config.z_red[0])
    # symmetric flow: gap' = 2/gap^2, so gap^3 = 1 + 6 t exactly
    assert gap**3 == pytest.approx(1.0 + 6.0 * final.t, rel=1e-3)
    seps = [abs(s.m_blue - s.m_red) for s in traj.samples]
    assert all(b > a for a, b in zip(seps, seps[1:]))


@pytest.mark.parametrize(
    "name, t_max",
    [
        pytest.param("untangled_pair.graph", 1e4, id="untangled_pair.graph"),
        pytest.param("three_blocks_6x6.weave", 1e4, id="three_blocks_6x6.weave"),
        pytest.param("three_blocks_6x6.weave", 1e5, id="three_blocks_6x6.weave-1e5"),
        pytest.param("mixed_stack_6x6.weave", 1e5, id="mixed_stack_6x6.weave-1e5"),
    ],
)
def test_invariants_hold_across_the_rosenbrock_switch(name, t_max):
    """Every sample of a run that switches from RK4 to Rosenbrock steps,
    every accepted step and every grid sample, keeps the flow's invariants:
    times increase, the energy never rises beyond the cushion, and the
    height sum (2n times the barycenter) holds to 1e-12, which needs the
    Rosenbrock stages and the dense output projected onto zero-sum moves.
    Steps far longer than dt_max show that the switch happened (RK4 steps
    differ from dt_max only by rounding)."""
    system = load_system(name)
    config = random_initial_configuration(system, seed=11)
    e0 = dynamics._total_energy(system, config)
    m0 = float(np.sum(config.z_blue + config.z_red))
    params = FlowParams(t_max=t_max, record_stride=1)
    traj = integrate(system, config, params)
    assert traj.samples[-1].t == params.t_max
    times = [s.t for s in traj.samples]
    assert all(b > a for a, b in zip(times, times[1:]))
    energies = [s.energy for s in traj.samples]
    assert all(b <= a + 1e-12 * abs(e0) for a, b in zip(energies, energies[1:]))
    for s in traj.samples:
        assert abs(float(np.sum(s.config.z_blue + s.config.z_red)) - m0) <= 1e-12
        assert np.all(np.sign(s.config.z_blue - s.config.z_red) == system.sign)
        assert s.min_gap >= params.gap_safety / e0
    assert np.max(np.diff(times)) > 10 * params.dt_max


# ROADMAP item 1's law A_k for the separation series of each cut between
# tangle components (top to bottom) of the untangled bundled designs: the
# prefactor of s^3 = A t + B, fixed by topology alone
SEPARATION_LAW = {
    "untangled_pair.graph": (6,),
    "square_flat.graph": (6,),
    "three_blocks_6x6.weave": (138240, 138240),
    "two_blocks_4x4.weave": (12288,),
    "layered_2x2.weave": (192, 192),
    "split_2x2.weave": (384,),
    "mixed_stack_6x6.weave": (200353, 282729, 282729, 200353),
}


@pytest.mark.parametrize("name", sorted(SEPARATION_LAW))
def test_separation_prefactor_matches_the_law(name):
    """A stepper-independent oracle for long runs: the fit of s^3 = A t + B
    on [500, 1e5] gives the law's A within 2e-4 (the worst measured at this
    horizon is 1.55e-4, on three_blocks_6x6)."""
    system = load_system(name)
    traj = integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=1e5))
    series = separation_series(traj)
    assert len(series) == len(SEPARATION_LAW[name])
    for cut, law in zip(series, SEPARATION_LAW[name]):
        inside = (cut.times >= 500.0) & (cut.times <= 1e5)
        slope, _ = np.polyfit(cut.times[inside], cut.values[inside] ** 3, 1)
        assert slope == pytest.approx(law, rel=2e-4)


def finite_difference_jacobian(kernel, y, eps=1e-5):
    columns = []
    for k in range(y.size):
        shift = np.zeros(y.size)
        shift[k] = eps
        columns.append((kernel_velocity(kernel, y + shift) - kernel_velocity(kernel, y - shift)) / (2 * eps))
    return np.stack(columns, axis=1)


def test_jacobian_matches_finite_differences():
    """_jacobian equals central differences of _velocity to 1e-6 of its
    largest entry (acceptance 4's tolerance for the gradient), is symmetric,
    and has zero column sums, on the bundled designs and on the random
    systems of acceptance 4."""
    cases = [(load_system(name), 0) for name in GRAPH_DESIGNS + WEAVE_DESIGNS]
    rng = np.random.default_rng(77)
    for trial in range(20):
        if trial % 2 == 0:
            system = random_graph_system(rng, max_vertices=10)
        else:
            system = random_weave_system(rng, max_threads=5)
        cases.append((system, int(rng.integers(1 << 30))))
    for system, seed in cases:
        config = random_initial_configuration(system, seed=seed)
        kernel = dynamics._StepKernel(system, config)
        y = np.concatenate((config.z_blue, config.z_red))
        J = dynamics._jacobian(kernel, y)
        scale = np.max(np.abs(J))
        assert np.max(np.abs(J - finite_difference_jacobian(kernel, y))) <= 1e-6 * scale
        assert np.array_equal(J, J.T)
        assert np.max(np.abs(J.sum(axis=0))) <= 1e-12 * scale


def test_trajectory_sampling_and_monotonicity():
    system = load_system("checker_4x4.weave")
    config = random_initial_configuration(system, seed=3)
    params = FlowParams(t_max=50.0, record_stride=10)
    traj = integrate(system, config, params)
    times = [s.t for s in traj.samples]
    assert all(b > a for a, b in zip(times, times[1:]))
    energies = [s.energy for s in traj.samples]
    e0 = energies[0]
    assert all(b <= a + 1e-12 * abs(e0) for a, b in zip(energies, energies[1:]))
    assert traj.samples[0].t == 0.0


@pytest.mark.parametrize(
    "name, seed, n_samples, t_final, energy",
    [
        ("untangled_pair.graph", 11, 249, 50.0, 0.7929593948117976),
        ("checker_4x4.weave", 3, 141, 12.319119304451943, 70.09762524723679),
        # this run rejects two steps
        ("chained_4x4.weave", 9, 367, 20.381040993106726, 60.58244255215241),
    ],
)
def test_step_sequence_is_pinned(name, seed, n_samples, t_final, energy):
    """Every accepted step recorded: the step sequence, and step() taking
    the same guarded first step as integrate()."""
    system = load_system(name)
    config0 = random_initial_configuration(system, seed=seed)
    traj = integrate(system, config0, FlowParams(t_max=50.0, record_stride=1))
    assert len(traj.samples) == n_samples
    assert traj.samples[-1].t == pytest.approx(t_final, rel=1e-12)
    assert traj.samples[-1].energy == pytest.approx(energy, rel=1e-12)
    first = traj.samples[1]
    assert first.t == FlowParams().dt_init
    stepped = step(system, config0, first.t)
    assert np.max(np.abs(stepped.z_blue - first.config.z_blue)) <= 1e-14
    assert np.max(np.abs(stepped.z_red - first.config.z_red)) <= 1e-14


@pytest.mark.parametrize(
    "name, seed, rejected, t_max",
    [
        # the untangled pair switches to Rosenbrock steps at t=10.33
        pytest.param("untangled_pair.graph", 11, 0, 10.0, id="untangled_pair.graph-11-0"),
        pytest.param("checker_4x4.weave", 3, 0, 50.0, id="checker_4x4.weave-3-0"),
        pytest.param("chained_4x4.weave", 9, 2, 50.0, id="chained_4x4.weave-9-2"),
    ],
)
def test_step_hooks_count_attempts_and_evaluations(monkeypatch, name, seed, rejected, t_max):
    """The benchmark's tracer derives its step counters from calls to the
    module-level `_velocity` and `_guard_reason`: one guard call per
    attempt, and 1 + 3 attempts + accepted + (energy-rejected attempts)
    velocity evaluations per run of RK4 steps, since only a state that
    passes the guard has its velocity evaluated."""
    counts = {"velocity": 0, "guard": 0, "guard_rejected": 0}
    velocity, guard = dynamics._velocity, dynamics._guard_reason

    def counted_velocity(*args, **kwargs):
        counts["velocity"] += 1
        return velocity(*args, **kwargs)

    def counted_guard(*args, **kwargs):
        counts["guard"] += 1
        result = guard(*args, **kwargs)
        counts["guard_rejected"] += isinstance(result, str)
        return result

    monkeypatch.setattr(dynamics, "_velocity", counted_velocity)
    monkeypatch.setattr(dynamics, "_guard_reason", counted_guard)
    system = load_system(name)
    traj = integrate(system, random_initial_configuration(system, seed=seed), FlowParams(t_max=t_max, record_stride=1))
    accepted = len(traj.samples) - 1
    attempts = counts["guard"]
    assert attempts == accepted + rejected
    energy_rejected = attempts - accepted - counts["guard_rejected"]
    assert counts["velocity"] == 1 + 3 * attempts + accepted + energy_rejected


def acceptance_4_systems():
    """The random (system, configuration) pairs of acceptance 4."""
    rng = np.random.default_rng(77)
    for trial in range(20):
        if trial % 2 == 0:
            system = random_graph_system(rng, max_vertices=10)
        else:
            system = random_weave_system(rng, max_threads=5)
        yield system, random_initial_configuration(system, seed=int(rng.integers(1 << 30)))


def test_sample_diagnostics_match_reference_formulas():
    """Each sample's energy equals `energy_entangled`/`energy_weave` on its
    configuration bit for bit (one energy formula) and the brute-force
    energy to rel 1e-13, its velocity sup norm equals `stationarity_residual`
    bit for bit, and its gap and barycenter diagnostics equal the plain numpy
    formulas bit for bit, on RK4 samples and, on one untangled run past the
    switch, on Rosenbrock steps and grid samples."""
    runs = []
    for name in GRAPH_DESIGNS + WEAVE_DESIGNS:
        system = load_system(name)
        runs.append((system, random_initial_configuration(system, seed=1), FlowParams(t_max=50.0, record_stride=10)))
    for system, config in acceptance_4_systems():
        runs.append((system, config, FlowParams(t_max=1.5, record_stride=1)))
    # past the Rosenbrock switch: accepted steps and grid samples
    system = load_system("three_blocks_6x6.weave")
    runs.append((system, random_initial_configuration(system, seed=1), FlowParams(t_max=1e4)))
    for system, config, params in runs:
        members = system._components if system.kind == "weave" else []
        energy = energy_of(system)
        traj = integrate(system, config, params)
        assert len(traj.samples) > 2
        for s in traj.samples:
            zb, zr = s.config.z_blue, s.config.z_red
            gaps = np.abs(zb - zr)
            assert s.energy == energy(system, s.config)
            assert s.energy == pytest.approx(brute_force_energy(system, s.config), rel=1e-13)
            assert s.grad_norm == stationarity_residual(system, s.config)
            assert s.min_gap == float(np.min(gaps))
            assert s.m_blue == float(np.mean(zb)) and s.m_red == float(np.mean(zr))
            assert s.m_components == tuple(
                float(np.sum(zb[blue])) + float(np.sum(zr[red])) for blue, red in members
            )


@pytest.mark.parametrize(
    "name, n_samples, energy, counts",
    [
        ("untangled_pair.graph", 566, 0.5510819178102914, "117 accepted, 4 rejected steps, 22 W refreshes, 927"),
        ("three_blocks_6x6.weave", 580, 96.96138374903938, "131 accepted, 3 rejected steps, 23 W refreshes, 980"),
    ],
    ids=["untangled_pair.graph", "three_blocks_6x6.weave"],
)
def test_rosenbrock_phase_is_pinned(caplog, name, n_samples, energy, counts):
    """The ROS34PW2 step sequence of an untangled run past the switch: its
    sample count, final time, step and evaluation counts exactly, and its
    final energy.  2 samples come from the RK4 phase, 447 from the grid."""
    caplog.set_level(logging.INFO, logger="tangleflow")
    system = load_system(name)
    traj = integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=1e4))
    assert (traj.status, len(traj.samples), traj.samples[-1].t) == ("truncated", n_samples, 1e4)
    assert traj.samples[-1].energy == pytest.approx(energy, rel=1e-12)
    assert [r.getMessage() for r in caplog.records] == [
        "switching to Rosenbrock steps at t=10.3297 after 120 accepted, 0 rejected RK4 steps",
        f"Rosenbrock phase ended at t=10000: {counts} velocity evaluations, "
        "447 grid samples recorded, 0 skipped",
    ]


@pytest.mark.parametrize(
    "name, t_final, counts",
    [
        ("untangled_pair.graph", 167.02968086899432, RunStats(120, 0, 849, 46, 1, 10, 181, 0)),
        ("three_blocks_6x6.weave", 218.22968086899436, RunStats(120, 0, 935, 64, 0, 11, 198, 0)),
    ],
    ids=["untangled_pair.graph", "three_blocks_6x6.weave"],
)
def test_rosenbrock_phase_converges(name, t_final, counts):
    """At grad_tol 1e-2 an untangled run converges inside the Rosenbrock
    phase, long before t_max: its final time and every count, exactly, and
    the last recorded point, the converged step, is below grad_tol."""
    system = load_system(name)
    params = FlowParams(t_max=1e5, grad_tol=1e-2)
    traj = integrate(system, random_initial_configuration(system, seed=11), params)
    assert (traj.status, traj.t[-1], traj.stats) == ("converged", t_final, counts)
    assert traj.grad_norm[-1] < params.grad_tol
    assert len(traj.t) == 1 + counts.rk4_accepted // params.record_stride + counts.ros_accepted + counts.grid_recorded


@pytest.mark.parametrize("name", ["untangled_pair.graph", "three_blocks_6x6.weave"])
def test_kernel_counts_every_velocity_evaluation(caplog, monkeypatch, name):
    """A run's `_StepKernel` counts every call of the module-level
    `_velocity` on it and every grid row that the module-level
    `_end_states` evaluates on it (those that pass its guard), through
    both phases (t_max=50, past the switch at t = 10.33), and the Rosenbrock
    INFO line reports the count's change over that phase."""
    caplog.set_level(logging.INFO, logger="tangleflow")
    velocity, end_states = dynamics._velocity, dynamics._end_states
    evaluated, phases = [], []  # per call: (kernel, states whose velocity it evaluated)

    def counted_velocity(kernel, *args):
        evaluated.append((kernel, 1))
        return velocity(kernel, *args)

    def counted_end_states(kernel, *args):
        passed, *values = end_states(kernel, *args)
        evaluated.append((kernel, int(np.count_nonzero(passed))))
        return (passed, *values)

    class WatchedPhase(dynamics._Rosenbrock):  # the switch: the count when the phase starts
        def __init__(self, kernel, *args):
            phases.append((kernel, kernel.evaluations))
            super().__init__(kernel, *args)

    monkeypatch.setattr(dynamics, "_velocity", counted_velocity)
    monkeypatch.setattr(dynamics, "_end_states", counted_end_states)
    monkeypatch.setattr(dynamics, "_Rosenbrock", WatchedPhase)
    system = load_system(name)
    integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=50.0))
    [(kernel, at_switch)] = phases
    in_phase = kernel.evaluations - at_switch
    kernels, counts = zip(*evaluated)
    assert all(k is kernel for k in kernels)
    assert any(count > 1 for count in counts)  # a batch of grid rows
    assert kernel.evaluations == sum(counts) > in_phase > 0
    summary = caplog.records[-1].getMessage()
    assert summary.startswith("Rosenbrock phase ended at t=50: ")
    assert f" W refreshes, {in_phase} velocity evaluations, " in summary


@pytest.mark.parametrize("stride", [1, 100])
@pytest.mark.parametrize("name", ["untangled_pair.graph", "three_blocks_6x6.weave"])
def test_run_stats_are_the_counts_of_both_phases(caplog, monkeypatch, name, stride):
    """`Trajectory.stats` holds the exact counts of a run through both
    phases (t_max=50, past the switch at t = 10.33), each equal to the calls
    of a wrapped module-level function: RK4 and Rosenbrock attempts, W
    refreshes, guard calls, and the end states of steps, rejected or not;
    grid samples are the rows of the `_end_states` batches, whose rows that
    pass its guard count as velocity evaluations besides the `_velocity`
    calls, and no grid sample goes through `_end_state`.  The INFO lines
    report the same counts, and the counts predict the number of recorded
    rows."""
    caplog.set_level(logging.INFO, logger="tangleflow")
    calls = {"_rk4_step": 0, "_ros_step": 0, "_jacobian": 0, "_velocity": 0, "_guard_reason": 0}
    ends = []  # per `_end_state` call: (in the Rosenbrock phase, of a grid sample, rejected)

    def counted(fn_name, fn):
        def wrapper(*args):
            calls[fn_name] += 1
            return fn(*args)
        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(dynamics, fn_name, counted(fn_name, getattr(dynamics, fn_name)))
    end_state = dynamics._end_state

    def watched_end_state(kernel, y, v, *args):
        end = end_state(kernel, y, v, *args)
        ends.append((calls["_ros_step"] > 0, v is kernel.k2, isinstance(end, str)))
        return end

    at_switch = []

    class WatchedPhase(dynamics._Rosenbrock):
        def __init__(self, *args):
            at_switch.append(calls["_velocity"])
            super().__init__(*args)

    end_states, batches = dynamics._end_states, []  # per batch: (rows, rows that pass)

    def watched_end_states(kernel, heights, gap_floor):
        passed, *values = end_states(kernel, heights, gap_floor)
        batches.append((len(heights), int(np.count_nonzero(passed))))
        return (passed, *values)

    monkeypatch.setattr(dynamics, "_end_state", watched_end_state)
    monkeypatch.setattr(dynamics, "_end_states", watched_end_states)
    monkeypatch.setattr(dynamics, "_Rosenbrock", WatchedPhase)
    system = load_system(name)
    params = FlowParams(t_max=50.0, record_stride=stride)
    traj = integrate(system, random_initial_configuration(system, seed=11), params)
    stats = traj.stats
    rk4 = [rejected for ros, _, rejected in ends if not ros]
    ros = [rejected for ros, grid, rejected in ends if ros and not grid]
    grid = [rejected for ros, grid, rejected in ends if ros and grid]
    assert stats.rk4_accepted >= dynamics._SWITCH_STEPS and stats.ros_accepted > 0
    assert calls["_rk4_step"] == len(rk4) == stats.rk4_accepted + stats.rk4_rejected
    assert rk4.count(True) == stats.rk4_rejected
    # a Rosenbrock step rejected by its error estimate has no end state
    assert calls["_ros_step"] == stats.ros_accepted + stats.ros_rejected
    assert ros.count(False) == stats.ros_accepted
    grid_rows, batched = (sum(column) for column in zip(*batches))
    assert grid_rows == stats.grid_recorded + stats.grid_skipped
    assert grid == []
    assert (calls["_jacobian"], calls["_velocity"] + batched, calls["_guard_reason"]) == (
        stats.w_refreshes, stats.velocity_evaluations, len(ends)
    )
    assert len(traj.t) == 1 + stats.rk4_accepted // stride + stats.ros_accepted + stats.grid_recorded
    switch, summary = (r.getMessage() for r in caplog.records)
    assert switch.endswith(f" after {stats.rk4_accepted} accepted, {stats.rk4_rejected} rejected RK4 steps")
    assert summary.startswith("Rosenbrock phase ended at t=50: ")
    assert summary.endswith(
        f": {stats.ros_accepted} accepted, {stats.ros_rejected} rejected steps, {stats.w_refreshes} W refreshes, "
        f"{stats.velocity_evaluations - at_switch[0]} velocity evaluations, "
        f"{stats.grid_recorded} grid samples recorded, {stats.grid_skipped} skipped"
    )


def test_an_entangled_run_evaluates_the_energy_only_where_it_is_read(monkeypatch):
    """An RK4-only run (chained_4x4, seed 9, default stride) calls `_energy`
    once for E0, once per later recorded row, and inside `_end_state` only
    for the steps whose certificate fails, at most twice each (the candidate
    and an unevaluated reference): here the 2 rejected steps, of 368."""
    energy, end_state = dynamics._energy, dynamics._end_state
    calls, fallbacks = [0], []  # per uncertified RK4 end state: `_energy` calls inside it

    def counted_energy(*args):
        calls[0] += 1
        return energy(*args)

    def watched_end_state(*args):
        before = calls[0]
        end = end_state(*args)
        if isinstance(end, str) or end[1] is not None:
            fallbacks.append(calls[0] - before)
        else:
            assert calls[0] == before
        return end

    monkeypatch.setattr(dynamics, "_energy", counted_energy)
    monkeypatch.setattr(dynamics, "_end_state", watched_end_state)
    system = load_system("chained_4x4.weave")
    traj = integrate(system, random_initial_configuration(system, seed=9), FlowParams())
    stats = traj.stats
    assert (stats.rk4_accepted, stats.rk4_rejected, len(traj.t)) == (366, 2, 5)
    assert fallbacks == [2, 2]
    assert calls[0] == 1 + (len(traj.t) - 1) + sum(fallbacks)


def test_an_entangled_run_evaluates_the_sup_norm_only_where_it_is_read(monkeypatch):
    """An RK4-only run (chained_4x4, seed 9, default stride) calls
    `_sup_norm` once at the start, once per later recorded row whose end
    left it unevaluated, and inside `_end_state` only for an accepted step
    that is not certified or whose v . v falls below the kernel's
    `speed_floor`, as it does near convergence.  Every other accepted step
    carries the sup norm None, and its true sup norm is at least grad_tol."""
    sup_norm, end_state, evaluated = dynamics._sup_norm, dynamics._end_state, dynamics._evaluated
    calls, undecided, filled = [0], [], [0]

    def counted_sup_norm(*args):
        calls[0] += 1
        return sup_norm(*args)

    def watched_end_state(kernel, y, v, reference, step=None):
        before = calls[0]
        end = end_state(kernel, y, v, reference, step)
        if isinstance(end, str):
            assert calls[0] == before
        elif end[2] is None:
            assert calls[0] == before and end[1] is None
            assert end[0].dot(end[0]) >= kernel.speed_floor
            assert sup_norm(end[0]) >= FlowParams().grad_tol
        else:
            assert calls[0] == before + 1
            undecided.append(end[1] is None)
        return end

    def watched_evaluated(kernel, y, end):
        filled[0] += end[2] is None
        return evaluated(kernel, y, end)

    monkeypatch.setattr(dynamics, "_sup_norm", counted_sup_norm)
    monkeypatch.setattr(dynamics, "_end_state", watched_end_state)
    monkeypatch.setattr(dynamics, "_evaluated", watched_evaluated)
    system = load_system("chained_4x4.weave")
    traj = integrate(system, random_initial_configuration(system, seed=9), FlowParams())
    stats = traj.stats
    assert (stats.rk4_accepted, stats.rk4_rejected, len(traj.t)) == (366, 2, 5)
    # every accepted step is certified; the last ones, near convergence, are undecided
    assert undecided == [True] * 17
    assert filled[0] == 3  # the rows after steps 100, 200 and 300; the final row's norm is exact
    assert calls[0] == 1 + filled[0] + len(undecided)
    assert traj.status == "converged" and traj.grad_norm[-1] < FlowParams().grad_tol


def alternating_weave(n_blue, n_red):
    """The weave of sign (-1)^(i+j) at blue thread i and red thread j."""
    sign = tuple(tuple((-1) ** (i + j) for j in range(n_red)) for i in range(n_blue))
    return build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign))


@pytest.mark.parametrize(
    "system, sum_test",
    [(load_system("checker_4x4.weave"), False), (alternating_weave(1, 4), True)],
    ids=["checker_4x4", "alternating 1x4"],
)
def test_end_state_reports_an_infinite_height_whose_gap_keeps_its_sign(system, sum_test):
    """A candidate whose first red height is infinite, on the side that
    keeps its crossing sign, passes the gap test.  `_end_state` returns
    "non-finite heights" for it with a step and without one: on
    checker_4x4, where every height lies on a height edge and an RK4 end
    state skips the guard's height-sum test, the infinite velocity entry
    fails the descent certificate and the fallback tests finiteness; the
    1x4 weave's red heights lie on no edge, so its guard keeps the sum
    test."""
    config = random_initial_configuration(system, seed=1)
    kernel = dynamics._StepKernel(system, config)
    assert kernel.sum_test is sum_test
    n = system.n_vertices
    candidate = kernel.stage
    candidate.flat[:] = kernel.y.flat
    candidate.flat[n] = -kernel.sign.flat[0] * math.inf
    increment = candidate.flat - kernel.y.flat
    with np.errstate(**dynamics._QUIET):
        gaps, min_gap = dynamics._guard_reason(kernel, candidate, kernel.gap_floor, False)
        assert min_gap >= kernel.gap_floor
        for step_ in (increment, None):
            assert dynamics._end_state(kernel, candidate, kernel.k2, kernel.start[1], step_) == "non-finite heights"


def test_rk4_step_falls_back_to_the_energy_test_when_the_certificate_fails(monkeypatch):
    """A backward step (dt = -0.1) climbs the energy, so v_new . step < 0
    and `_rk4_step` still returns "energy increased", from `_energy` at the
    candidate, and at the start too when its energy is unevaluated (None);
    a forward step is certified with no `_energy` call and its energy left
    None."""
    calls = [0]
    energy = dynamics._energy

    def counted_energy(*args):
        calls[0] += 1
        return energy(*args)

    monkeypatch.setattr(dynamics, "_energy", counted_energy)
    system = load_system("entangled_pair.graph")
    kernel = dynamics._StepKernel(system, make_configuration(system, (0.6, -0.5), (-0.55, 0.62)))
    calls[0] = 0
    with np.errstate(**dynamics._QUIET):
        for reference, evaluations in ((kernel.start[1], 1), (None, 2)):
            assert dynamics._rk4_step(kernel, -0.1, reference) == "energy increased"
            assert calls[0] == evaluations
            calls[0] = 0
        end = dynamics._rk4_step(kernel, 1e-3, None)
    assert end[1] is None and calls[0] == 0
    n = system.n_vertices
    stepped = kernel.y_new.flat
    stepped = make_configuration(system, stepped[:n], stepped[n:])
    assert energy_entangled(system, stepped) <= kernel.start[1]


@pytest.mark.parametrize("name", GRAPH_DESIGNS + WEAVE_DESIGNS)
def test_tableau_rk4_step_is_the_textbook_formula(name):
    """Two consecutive `_rk4_step` + `accept` calls, which run both parities
    of the kernel's row block and refill its tableau for a new dt, each give
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4) to 1e-13 relative, with every k_i the
    velocity at the textbook stage state; `step` gives the first bit for
    bit."""
    system = load_system(name)
    config = random_initial_configuration(system, seed=1)
    kernel = dynamics._StepKernel(system, config)
    start = kernel.y.flat
    energy = kernel.start[1]
    for dt in (0.01, 0.02):
        y = kernel.y.flat.copy()
        k1 = kernel.v.flat.copy()
        k2 = kernel_velocity(kernel, y + 0.5 * dt * k1)
        k3 = kernel_velocity(kernel, y + 0.5 * dt * k2)
        k4 = kernel_velocity(kernel, y + dt * k3)
        expected = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        end = dynamics._rk4_step(kernel, dt, energy)
        assert not isinstance(end, str), end
        y_new = kernel.y_new.flat
        assert np.max(np.abs(y_new - expected)) <= 1e-13 * np.max(np.abs(expected))
        if dt == 0.01:
            stepped = step(system, config, dt)
            assert np.array_equal(np.concatenate((stepped.z_blue, stepped.z_red)), y_new)
        kernel.accept()
        assert np.shares_memory(kernel.y.flat, start) is (dt == 0.02)
        energy = dynamics._evaluated(kernel, kernel.y, end)[1]


def test_run_stats_of_a_run_that_stays_on_rk4(monkeypatch):
    """An entangled run never switches: its `RunStats` has zero Rosenbrock
    counts, and its RK4 counts and velocity evaluations equal the calls of
    a wrapped `_rk4_step` and `_velocity` (chained_4x4, seed 9, rejects 2
    steps; every accepted step recorded)."""
    calls = {"_rk4_step": 0, "_velocity": 0}

    def counted(fn_name, fn):
        def wrapper(*args):
            calls[fn_name] += 1
            return fn(*args)
        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(dynamics, fn_name, counted(fn_name, getattr(dynamics, fn_name)))
    system = load_system("chained_4x4.weave")
    traj = integrate(system, random_initial_configuration(system, seed=9), FlowParams(t_max=50.0, record_stride=1))
    accepted = len(traj.t) - 1
    assert traj.stats == RunStats(rk4_accepted=accepted, rk4_rejected=2, velocity_evaluations=calls["_velocity"])
    assert calls["_rk4_step"] == accepted + 2


@pytest.mark.parametrize("name", ["untangled_pair.graph", "three_blocks_6x6.weave"])
def test_lazy_samples_are_the_recorded_rows(name):
    """`Trajectory.samples`, built once on first access, holds one `Sample`
    per recorded row, field for field: the row's configuration, its energy
    as `energy_entangled`/`energy_weave` give it bit for bit, its barycenters
    and its component sums from two gathers each, exactly, on a run past
    the Rosenbrock switch.  The columns are read-only, like the arrays of a
    `Configuration`."""
    system = load_system(name)
    config0 = random_initial_configuration(system, seed=11)
    traj = integrate(system, config0, FlowParams(t_max=500.0))
    n = system.n_vertices
    members = system._components if system.kind == "weave" else []
    energy = energy_of(system)
    samples = traj.samples
    assert traj.samples is samples and len(samples) == len(traj.t) > 300
    for i, s in enumerate(samples):
        zb, zr = s.config.z_blue, s.config.z_red
        assert np.array_equal(s.config.x, config0.x)
        assert np.array_equal(zb, traj.heights[i, :n]) and np.array_equal(zr, traj.heights[i, n:])
        fields = (s.t, s.energy, s.grad_norm, s.min_gap, s.m_blue, s.m_red)
        assert all(type(value) is float for value in fields + s.m_components)
        assert fields == (
            traj.t[i], energy(system, s.config), traj.grad_norm[i], float(np.min(np.abs(zb - zr))),
            float(np.add.reduce(zb)) / n, float(np.add.reduce(zr)) / n,
        )
        assert s.m_components == tuple(
            float(np.add.reduce(zb[blue])) + float(np.add.reduce(zr[red])) for blue, red in members
        )
    columns = (traj.t, traj.heights, traj.energy, traj.grad_norm, traj.min_gap, traj.m_blue, traj.m_red)
    assert traj.m_components.shape == (len(traj.t), len(members))
    assert not any(column.flags.writeable for column in columns + (traj.m_components,))
    with pytest.raises(ValueError, match="read-only"):
        traj.heights[0, 0] = 0.0


@pytest.mark.parametrize("name", ["three_blocks_6x6.weave", "mixed_stack_6x6.weave"])
def test_rosenbrock_w_is_rebuilt_once_t_has_doubled(monkeypatch, name):
    """ROS34PW2 is third order for any W, but its error estimate needs W
    near the current Jacobian, and the coupling between components fades
    like 1/t: no Rosenbrock step may use a W built before half its start
    time.  (With W refreshed only when h changes, a mixed_stack_6x6 step
    used a W built at 1/20.8 of its start time.)  Every step start is a
    recorded sample (record_stride=1), which gives the time of each
    `_jacobian` call and `_ros_step`."""
    events = []
    jacobian, ros_step = dynamics._jacobian, dynamics._ros_step

    def remembered_jacobian(kernel, y):
        events.append(("W", y.tobytes()))
        return jacobian(kernel, y)

    def remembered_step(kernel, *args):
        events.append(("step", kernel.y.flat.tobytes()))
        return ros_step(kernel, *args)

    monkeypatch.setattr(dynamics, "_jacobian", remembered_jacobian)
    monkeypatch.setattr(dynamics, "_ros_step", remembered_step)
    system = load_system(name)
    traj = integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=1e5, record_stride=1))
    time_of = {np.concatenate((s.config.z_blue, s.config.z_red)).tobytes(): s.t for s in traj.samples}
    assert events[0][0] == "W" and len(events) > 50
    for kind, y in events:
        if kind == "W":
            t_w = time_of[y]
        else:
            assert time_of[y] <= 2.0 * t_w


def test_rosenbrock_tail_to_1e5_takes_few_steps(caplog):
    """With W kept near the Jacobian, the error estimate no longer stalls
    h: mixed_stack_6x6 reaches t=1e5 in 183 accepted Rosenbrock steps.
    With W refreshed only when h changes it took 919 from the same switch
    at t=10.33, and 404 from a switch at t=100.33."""
    caplog.set_level(logging.INFO, logger="tangleflow")
    system = load_system("mixed_stack_6x6.weave")
    traj = integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=1e5))
    assert traj.samples[-1].t == 1e5
    summary = caplog.records[-1].getMessage()
    assert summary.startswith("Rosenbrock phase ended at t=100000: ")
    accepted = int(summary.split(": ")[1].split()[0])
    assert accepted <= 250


def test_long_untangled_run_ends_without_a_rejection_storm(monkeypatch):
    """Heights of ~1e4 and more make an energy formula that cancels round
    above the energy cushion; then about half the end states are rejected,
    the steps stay short and a run to 1e20 never ends.  With squared edge
    differences the run to 1e14 ends truncated, after 1,147 `_end_state`
    calls (2,369 samples): one per RK4 step and per Rosenbrock step that
    passes its error test; the budget of 30,000 calls makes a storm fail
    fast instead of hanging.  Its Rosenbrock counts depend on the last bits
    of the cancelled velocity products at heights of ~5e4, so they move
    with the BLAS kernel and with the rounding of the RK4 and Rosenbrock
    stage sums."""
    calls = 0
    end_state = dynamics._end_state

    def budgeted_end_state(*args):
        nonlocal calls
        calls += 1
        assert calls <= 30_000, "end-state evaluation budget exceeded"
        return end_state(*args)

    monkeypatch.setattr(dynamics, "_end_state", budgeted_end_state)
    system = load_system("three_blocks_6x6.weave")
    traj = integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=1e14))
    assert (traj.status, traj.samples[-1].t) == ("truncated", 1e14)
    # the only bundled run whose grid samples skip: 607 of its 1,947
    assert traj.stats == RunStats(120, 0, 6383, 991, 48, 143, 1340, 607)


def test_skipped_grid_samples_leave_the_steps_unchanged(caplog, monkeypatch):
    """Grid samples are read off accepted steps and never steer them: when
    every grid state fails the batch's guard (an infinite gap floor), each
    is skipped (counted, not recorded), and the run records exactly the
    other samples of the unpatched run, bit for bit."""
    system = load_system("untangled_pair.graph")
    config = random_initial_configuration(system, seed=11)
    params = FlowParams(t_max=1e3)
    caplog.set_level(logging.INFO, logger="tangleflow")
    full = integrate(system, config, params)
    recorded = caplog.records[-1].getMessage()
    assert recorded.endswith(" grid samples recorded, 0 skipped")
    n_grid = int(recorded.split(" velocity evaluations, ")[1].split()[0])

    end_states = dynamics._end_states

    def failing_batch(kernel, heights, gap_floor):
        return end_states(kernel, heights, math.inf)

    monkeypatch.setattr(dynamics, "_end_states", failing_batch)
    caplog.clear()
    patched = integrate(system, config, params)
    assert caplog.records[-1].getMessage().endswith(f" 0 grid samples recorded, {n_grid} skipped")
    energies = {s.t: s.energy for s in full.samples}
    assert len(patched.samples) == len(full.samples) - n_grid
    assert all(energies[s.t] == s.energy for s in patched.samples)


def batch_systems():
    """Weaves of every family shape from 1 to 4 threads and a 6x6, random
    graphs, and the bundled untangled designs."""
    rng = np.random.default_rng(23)
    for n_blue, n_red in [(b, r) for b in range(1, 5) for r in range(1, 5)] + [(6, 6)]:
        sign = tuple(tuple(int(s) for s in rng.choice([-1, 1], size=n_red)) for _ in range(n_blue))
        yield build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign, spacing=1.0))
    for _ in range(6):
        yield random_graph_system(rng, max_vertices=12)
    for name in ("untangled_pair.graph", "square_flat.graph", "two_blocks_4x4.weave", "three_blocks_6x6.weave"):
        yield load_system(name)


@pytest.mark.parametrize("system", batch_systems(), ids=lambda system: f"{system.kind}-{system.n_vertices}")
def test_batched_end_states_match_end_state_row_for_row(system):
    """`_end_states` passes exactly the rows that `_end_state` accepts, gives
    each the energy, velocity sup norm and minimum gap that `_end_state`
    gives it, bit for bit, and counts one velocity evaluation per such row.
    The rows are perturbations of a random initial state at several scales,
    then three copies of it with a flipped sign, a NaN and a gap below the
    floor, so the batch holds passing and failing rows, and last a row of
    finite heights near H = 0.9 DBL_MAX / (2 d), d the largest vertex degree
    in a family, so that no partial sum of 2 L z overflows.  Its row sum,
    about 0.9 n / d DBL_MAX, overflows when 0.9 n > d (21 of the 27
    systems), and the guard takes the row all the same."""
    rng = np.random.default_rng(system.n_vertices)
    config = random_initial_configuration(system, seed=3)
    y = np.concatenate((config.z_blue, config.z_red))
    n = system.n_vertices
    with np.errstate(**dynamics._QUIET):
        kernel = dynamics._StepKernel(system, config)
        scales = np.repeat([0.0, 1e-3, 0.1, 1.0, 0.0], [3, 3, 3, 3, 1])
        rows = y + rng.normal(size=(13, 2 * n)) * scales[:, None]
        rows[9:] = y
        flipped, nan, narrow, huge = rows[9:]
        flipped[0], flipped[n] = flipped[n], flipped[0]
        nan[-1] = np.nan
        narrow[n] = narrow[0] - kernel.sign.flat[0] * 0.5 * kernel.gap_floor
        degree = np.bincount(np.concatenate(kernel.edges), minlength=2 * n).max()
        huge[:] = 0.9 * np.finfo(float).max / max(2 * degree, 1)
        huge[:n] += kernel.sign.reshape(n) * 2.0**-20 * huge[:n]
        assert np.isfinite(huge).all()
        overflows = not math.isfinite(np.add.reduce(huge))
        start = kernel.evaluations
        passed, *values = dynamics._end_states(kernel, rows, kernel.gap_floor)
        assert kernel.evaluations - start == np.count_nonzero(passed) >= 4
        evaluated = zip(*(column.tolist() for column in values))
        for row, ok in zip(rows, passed.tolist()):
            kernel.stage.flat[:] = row
            end = dynamics._end_state(kernel, kernel.stage, kernel.k2, math.inf)
            assert ok is not isinstance(end, str)
            if ok:
                assert next(evaluated) == (end[1], end[2], float(end[3]))
    assert passed.tolist()[9:] == [False, False, False, True]
    assert overflows == (0.9 * n > degree)


@pytest.mark.parametrize("exact_jacobian", [True, False], ids=["exact J", "fixed wrong W"])
def test_rosenbrock_step_is_third_order(monkeypatch, exact_jacobian):
    """`_ros_step`, with the tableau as coded, is third order on the stiff
    nonlinear Kaps problem y1' = -(1/eps + 2) y1 + y2^2 / eps,
    y2' = y1 - y2 - y2^2 with eps = 0.1 (stiffness ratio ~12), whose
    solution from (1, 1) is (e^-2t, e^-t): halving h cuts the error at t = 1
    by 2^p with p >= 2.8, with W from the exact Jacobian at every step and,
    since a W-method needs no exact Jacobian, with one W built from half the
    initial Jacobian and held for the whole run (measured: p = 2.91 and 2.96
    with the exact J, 3.01 and 3.00 with the wrong W)."""
    eps = 0.1

    def f(y):
        return np.array([-(1.0 / eps + 2.0) * y[0] + y[1] ** 2 / eps, y[0] - y[1] - y[1] ** 2])

    def jacobian(y):
        return np.array([[-(1.0 / eps + 2.0), 2.0 * y[1] / eps], [1.0, -1.0 - 2.0 * y[1]]])

    def velocity(kernel, y, out, gaps=None):
        out.flat[:] = f(y.flat)
        return out

    monkeypatch.setattr(dynamics, "_velocity", velocity)
    # a 1x1 weave's kernel has buffers of the problem's two unknowns
    system = build_weave_system(WeaveDesign(1, 1, ((1,),)))
    kernel = dynamics._StepKernel(system, random_initial_configuration(system, seed=0))

    def error_at_1(n):
        h = 1.0 / n
        y = np.array([1.0, 1.0])
        held = 0.5 * jacobian(y)
        for _ in range(n):
            J = jacobian(y) if exact_jacobian else held
            w_inv = np.linalg.inv(np.eye(2) - dynamics._ROS_GAMMA * h * J)
            kernel.y.flat[:], kernel.v.flat[:] = y, f(y)
            y_new, _ = dynamics._ros_step(kernel, h, w_inv)
            y = y_new.flat.copy()
        return float(np.max(np.abs(y - np.exp([-2.0, -1.0]))))

    errors = [error_at_1(n) for n in (80, 160, 320)]
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 2.8, orders


UNTANGLED_DESIGNS = [name for name in GRAPH_DESIGNS + WEAVE_DESIGNS if len(load_system(name)._components) >= 2]


@pytest.mark.parametrize("name", UNTANGLED_DESIGNS)
def test_tableau_rosenbrock_step_is_the_u_variable_formula(name):
    """One W refresh plus `_ros_step`, whose sums are row products over the
    kernel's `ros` block, give ROS34PW2 in its u variables to 1e-13
    relative: stage = y + sum_j a_ij u_j, W u_i = gamma h f + sum_j gc_ij u_j
    with f the velocity at the stage, y_new = y + sum_j m_j u_j and error
    sum_j e_j u_j (relative to the sum of its terms' magnitudes, since it
    cancels).  At two step sizes, so that the kernel refills the
    gamma h column of its right-hand-side rows."""
    system = load_system(name)
    kernel = dynamics._StepKernel(system, random_initial_configuration(system, seed=1))
    phase = dynamics._Rosenbrock(kernel, None, 10.0, 0, 0)
    y, v = kernel.y.flat.copy(), kernel.v.flat.copy()
    a, gc, error_weights = dynamics._ROS_A, dynamics._ROS_GC, dynamics._ROS_ERROR
    m = dynamics._ROS_B @ np.linalg.inv(dynamics._ROS_GAMMAS)
    for h in (0.05, 0.1):
        with np.errstate(**dynamics._QUIET):
            phase.attempt(10.0, h, kernel.start[1])  # a new h refreshes W
        w_inv, gamma_h = phase.w_inv, dynamics._ROS_GAMMA * h
        u = np.empty((4, y.size))
        u[0] = w_inv @ (gamma_h * v)
        for i in range(1, 4):
            f = kernel_velocity(kernel, y + a[i, :i] @ u[:i])
            u[i] = w_inv @ (gamma_h * f + gc[i, :i] @ u[:i])
        y_new, error = dynamics._ros_step(kernel, h, w_inv)
        expected = y + m @ u
        assert np.max(np.abs(y_new.flat - expected)) <= 1e-13 * np.max(np.abs(expected))
        scale = np.max(np.abs(error_weights) @ np.abs(u))
        assert np.max(np.abs(error - error_weights @ u)) <= 1e-13 * scale
        assert kernel.gamma_h == gamma_h


def test_jacobian_copies_its_cached_stretching_matrix():
    """`_jacobian` builds the dense 2 L at its first call, not with the
    kernel, and then copies it: two calls at different states each equal,
    bit for bit, a build from a fresh `_laplacian`, also after the first
    result was overwritten."""
    system = load_system("three_blocks_6x6.weave")
    kernel = dynamics._StepKernel(system, random_initial_configuration(system, seed=1))
    assert kernel.dense is None
    n = system.n_vertices
    blue = np.arange(n)
    for seed in (2, 3):
        config = random_initial_configuration(system, seed=seed)
        y = np.concatenate((config.z_blue, config.z_red))
        d = np.abs(y[:n] - y[n:])
        D = 2.0 / (d * d * d)
        expected = 2.0 * _laplacian(*kernel.edges, 2 * n)
        expected[blue, blue] -= D
        expected[blue + n, blue + n] -= D
        expected[blue, blue + n] = expected[blue + n, blue] = D
        J = dynamics._jacobian(kernel, y)
        assert np.array_equal(J, expected)
        J.fill(np.nan)


def test_guard_reason_returns_gaps_or_reason():
    """An acceptable state yields its absolute gaps and their minimum, bit
    for bit; each kind of unacceptable state yields its reason."""
    system = load_system("entangled_pair.graph")  # signs (+1, -1)
    kernel = dynamics._StepKernel(system, random_initial_configuration(system, seed=0))

    def guard(z_blue, z_red, floor=1e-3):
        kernel.y.flat[:] = z_blue + z_red
        with np.errstate(**dynamics._QUIET):
            return dynamics._guard_reason(kernel, kernel.y, floor)

    rng = np.random.default_rng(5)
    for seed in range(20):
        config = random_initial_configuration(system, seed=seed, gap_scale=float(rng.uniform(1e-2, 1e2)))
        gaps, min_gap = guard(tuple(config.z_blue), tuple(config.z_red))
        assert np.array_equal(gaps, np.abs(config.z_blue - config.z_red))
        assert min_gap == np.min(np.abs(config.z_blue - config.z_red))
    # finite heights whose sum overflows take the slow path and still pass
    gaps, min_gap = guard((1e308, 1e308), (0.0, 1.5e308))
    assert np.array_equal(gaps, [1e308, 0.5e308]) and min_gap == 0.5e308
    assert guard((float("nan"), -1.0), (-1.0, 1.0)) == "non-finite heights"
    assert guard((float("inf"), -1.0), (-1.0, 1.0)) == "non-finite heights"
    assert guard((-1.0, -1.0), (1.0, 1.0)) == "crossing sign flipped"
    assert guard((0.25, -0.25), (-0.25, 0.25), floor=1.0) == (
        "minimum gap fell below the floor 1.000e+00"
    )


def cycle_laplacian(m):
    """The Laplacian of one thread cycle of m crossings, edge by edge: the
    loop of m = 1 is dropped, the double edge of m = 2 kept."""
    C = np.zeros((m, m))
    for k in range(m):
        a, b = k, (k + 1) % m
        if a != b:
            C[a, b] += 1.0
            C[b, a] += 1.0
            C[a, a] -= 1.0
            C[b, b] -= 1.0
    return C


def test_step_kernel_matches_reference_arithmetic():
    """The velocity of the step loop equals, bit for bit, the plain formula
    with an integer sign: for a graph 2 (L z) +- sign / d^2 with matmul, for
    a weave the same on its (n_blue, n_red) vertex grid, 2 Z_b @ C_{n_red}
    and 2 C_{n_blue} @ Z_r, with C_m one thread cycle.  A weave's velocity
    is also within 4 ulp of each entry's term magnitudes of the dense
    formula.  Its end-state energy equals `energy_entangled`/`energy_weave`
    bit for bit."""
    rng = np.random.default_rng(17)
    systems = [load_system(name) for name in ["untangled_pair.graph", "honeycomb.graph"] + WEAVE_DESIGNS]
    systems += [random_graph_system(rng) for _ in range(4)] + [random_weave_system(rng) for _ in range(4)]
    for system in systems:
        kernel = dynamics._StepKernel(system, random_initial_configuration(system, seed=0))
        energy = energy_of(system)
        for trial in range(10):
            scale = 10.0 ** rng.uniform(-2, 2)
            config = random_initial_configuration(system, seed=trial, gap_scale=scale)
            zb, zr = config.z_blue, config.z_red
            got = kernel_velocity(kernel, np.concatenate((zb, zr)))
            dense, magnitude = dense_velocity(system, config)
            if system.kind == "weave":
                nb, nr = system.design.n_blue, system.design.n_red
                d = zb - zr
                repulsion = system.sign / (d * d)
                expected = np.concatenate((
                    (2.0 * zb.reshape(nb, nr) @ cycle_laplacian(nr)).ravel() + repulsion,
                    (2.0 * cycle_laplacian(nb) @ zr.reshape(nb, nr)).ravel() - repulsion,
                ))
                assert np.all(np.abs(got - dense) <= 4 * np.finfo(float).eps * magnitude)
            else:
                expected = dense
            assert np.array_equal(got, expected)
            assert end_state_energy(system, config) == energy(system, config)


def checkerboard(n):
    return build_weave_system(
        WeaveDesign(n, n, tuple(tuple(1 - 2 * ((i + j) % 2) for j in range(n)) for i in range(n)))
    )


def test_weave_step_kernel_holds_no_n_by_n_array():
    """A weave's `_StepKernel` keeps no array of n^2 entries, neither among
    its buffers nor in its stretching products, and builds no family
    Laplacian."""
    system = checkerboard(12)
    kernel = dynamics._StepKernel(system, random_initial_configuration(system, seed=0))
    n = system.n_vertices

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
            if value.base is not None:
                yield from arrays(value.base)
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dynamics._Heights):
            for name in value.__slots__:
                yield from arrays(getattr(value, name))
        elif callable(value):
            for cell in getattr(value, "__closure__", None) or ():
                yield from arrays(cell.cell_contents)

    found = list(arrays(list(vars(kernel).values())))
    assert len(found) > 20
    assert max(a.size for a in found) < n * n
    assert not {"blue_laplacian", "red_laplacian", "laplacian"} & set(vars(system))


def test_integrate_on_a_large_weave_builds_no_dense_matrix():
    """`integrate` on a 48x48 checkerboard (n = 2304) builds no family
    Laplacian, and its traced peak stays far below one n x n float matrix
    (42 MB)."""
    system = checkerboard(48)
    config = random_initial_configuration(system, seed=3)
    tracemalloc.start()
    try:
        traj = integrate(system, config, FlowParams(t_max=0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.samples[-1].t == 0.01
    assert peak < 5e6
    assert not {"blue_laplacian", "red_laplacian", "laplacian"} & set(vars(system))


def test_component_barycenters_are_pinned():
    """M_W sums each component's heights thread by thread, top to bottom;
    the final values of one run are pinned (single-thread components
    included)."""
    system = load_system("mixed_stack_6x6.weave")
    traj = integrate(system, random_initial_configuration(system, seed=1), FlowParams(t_max=50.0))
    components = tangle_decomposition(system).components
    for s in traj.samples:
        expected = []
        for comp in components:
            blue = [v for i in comp.blue for v in system.blue_threads[i - 1]]
            red = [v for j in comp.red for v in system.red_threads[j - 1]]
            expected.append(float(np.sum(s.config.z_blue[blue])) + float(np.sum(s.config.z_red[red])))
        assert s.m_components == tuple(expected)
    assert traj.samples[-1].m_components == pytest.approx(
        (102.30766956614085, 12.361992886971262, -0.04576948032657101, -12.3762615548008, -102.24763141798473),
        rel=1e-12,
    )


def test_step_constants_do_not_outlive_their_system():
    system = load_system("split_2x2.weave")
    integrate(system, random_initial_configuration(system, seed=0), FlowParams(t_max=1.0))
    alive = weakref.ref(system)
    del system
    assert alive() is None


def test_integrate_invariants_on_random_systems():
    rng = np.random.default_rng(31)
    for _ in range(6):
        system = random_graph_system(rng, max_vertices=8)
        config = random_initial_configuration(system, seed=int(rng.integers(1 << 30)))
        e0 = energy_entangled(system, config)
        m0 = float(np.sum(config.z_blue + config.z_red))
        traj = integrate(system, config, FlowParams(t_max=2.0))
        for s in traj.samples:
            assert s.min_gap >= 0.5 / e0
            assert np.all(np.sign(s.config.z_blue - s.config.z_red) == system.sign)
            assert abs(float(np.sum(s.config.z_blue + s.config.z_red)) - m0) <= 1e-8


def test_entangled_heights_stay_bounded_after_transient():
    """Entangled runs settle: the second half of the run never exceeds the
    height extremes of the first half."""
    rng = np.random.default_rng(41)
    cases = [load_system("checker_4x4.weave"), random_graph_system(rng, max_vertices=6)]
    for system in cases:
        if system.kind == "entangled-graph" and not (
            np.any(system.sign == 1) and np.any(system.sign == -1)
        ):
            continue  # boundedness is an entangled-only claim
        config = random_initial_configuration(system, seed=9)
        traj = integrate(system, config, FlowParams(t_max=40.0, record_stride=10))
        t_mid = traj.samples[-1].t / 2
        sup = lambda s: max(
            np.max(np.abs(s.config.z_blue)), np.max(np.abs(s.config.z_red))
        )
        first = max(sup(s) for s in traj.samples if s.t <= t_mid)
        second = max(sup(s) for s in traj.samples if s.t > t_mid)
        assert second <= first + 1e-9


def test_integrate_rejects_bad_initial_state():
    system = load_system("entangled_pair.graph")
    bad = Configuration(
        x=harmonic(system), z_blue=np.array([1.0, 1.0]), z_red=np.array([-1.0, 0.5])
    )
    with pytest.raises(InvalidInitial):
        integrate(system, bad, FlowParams(t_max=1.0))


def harmonic(system):
    from tangleflow.model import harmonic_planar_coordinates

    return harmonic_planar_coordinates(system)


@pytest.mark.parametrize(
    "name, z_blue, z_red",
    [
        # misshapen heights: checked before any arithmetic broadcasts them
        ("entangled_pair.graph", (1.0, -1.0, 1.0), (-1.0, 1.0)),
        # non-finite heights
        ("entangled_pair.graph", (np.inf, -1.0), (-1.0, 1.0)),
        # overflowing heights: the stretching energy overflows
        ("entangled_pair.graph", (1e200, -1e200), (-1e200, 1e200)),
        # non-finite initial energy: 1/gap overflows
        ("entangled_pair.graph", (1e-320, -1.0), (0.0, 1.0)),
        # non-finite initial velocity: 1/gap^2 overflows
        ("entangled_pair.graph", (1e-160, -1.0), (0.0, 1.0)),
    ],
    ids=["misshapen", "non-finite", "overflowing", "energy-overflow", "velocity-overflow"],
)
def test_integrate_rejects_unusable_initial_heights(name, z_blue, z_red):
    system = load_system(name)
    bad = Configuration(
        x=harmonic(system), z_blue=np.array(z_blue), z_red=np.array(z_red)
    )
    with pytest.raises(InvalidInitial):
        integrate(system, bad, FlowParams(t_max=1.0))


def test_integrate_accepts_gaps_whose_cube_overflows():
    """The stability bound treats an overflowing gap cube as infinite."""
    system = load_system("untangled_pair.graph")
    config = make_configuration(system, (1e103, 2e103), (-1e103, -1e103))
    traj = integrate(system, config, FlowParams(t_max=1.0))
    assert traj.status == "truncated"
    assert traj.samples[-1].t == 1.0


def test_step_underflow_reports_snapshot():
    system = load_system("entangled_pair.graph")
    config = random_initial_configuration(system, seed=2)
    params = FlowParams(dt_init=4.0, dt_min=4.0, dt_max=4.0, t_max=100.0)
    with pytest.raises(StepUnderflow) as err:
        integrate(system, config, params)
    assert err.value.t >= 0.0
    assert err.value.dt == 4.0


def test_rosenbrock_step_underflow(monkeypatch):
    """A Rosenbrock phase whose steps all fail halves h down to dt_min, and
    then stops at the time it switched."""
    nan_error_ros_step(monkeypatch)
    system = load_system("untangled_pair.graph")
    with pytest.raises(StepUnderflow, match=r"^step size underflow at t=10\.3297 \(dt=1e-09\)$") as err:
        integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=50.0))
    assert err.value.t == pytest.approx(10.3297, abs=5e-5)
    assert err.value.dt == FlowParams().dt_min == 1e-9


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(dt_init=1e-3, dt_min=1e-2)  # dt_min > dt_init
    with pytest.raises(ValueError):
        FlowParams(gap_safety=1.5)
    with pytest.raises(ValueError):
        FlowParams(record_stride=0)
    with pytest.raises(ValueError):
        FlowParams(dt_init=float("nan"))  # would never shrink or grow
    with pytest.raises(ValueError):
        FlowParams(t_max=float("inf"))  # an untangled run would never end
    with pytest.raises(ValueError):
        FlowParams(grad_tol=float("inf"))  # would report convergence at t=0
    # each took a bool as the number 1; it is rejected, as `step` rejects dt=True
    for name in ("dt_min", "dt_init", "dt_max"):
        with pytest.raises(InvalidParameter, match=f"^{name} must be an int or float, got True$"):
            FlowParams(**{name: True})
    for name in ("t_max", "grad_tol"):
        with pytest.raises(InvalidParameter, match=f"^{name} must be positive and finite, got True$"):
            FlowParams(**{name: True})
    # each escaped as a raw TypeError from a comparison
    for name, value, message in [
        ("t_max", None, "must be positive and finite"),
        ("grad_tol", "1e-3", "must be positive and finite"),
        ("dt_min", None, "must be an int or float"),
        ("dt_init", "0.1", "must be an int or float"),
        ("dt_max", 1j, "must be an int or float"),
        ("gap_safety", "0.5", "must lie strictly between 0 and 1"),
    ]:
        with pytest.raises(InvalidParameter, match=f"^{name} {message}, got {re.escape(repr(value))}$"):
            FlowParams(**{name: value})


def test_record_stride_controls_sample_count():
    system = load_system("entangled_pair.graph")
    config = random_initial_configuration(system, seed=4)
    dense = integrate(system, config, FlowParams(t_max=5.0, record_stride=1))
    sparse = integrate(system, config, FlowParams(t_max=5.0, record_stride=50))
    assert len(dense.samples) > len(sparse.samples)


def test_translation_symmetry_of_converged_checkerboard():
    """The diagonal translation preserves the sign pattern, so the limit
    configuration must be invariant under it."""
    system = load_system("checker_4x4.weave")
    config = random_initial_configuration(system, seed=5)
    traj = integrate(system, config, FlowParams(t_max=500.0))
    assert traj.status == "converged"
    final = traj.samples[-1].config
    n = 4
    perm = [((i + 1) % n) * n + ((j + 1) % n) for i in range(n) for j in range(n)]
    assert np.max(np.abs(final.z_blue[perm] - final.z_blue)) <= 1e-6
    assert np.max(np.abs(final.z_red[perm] - final.z_red)) <= 1e-6


@pytest.mark.parametrize(
    "z_blue, z_red, expected",
    [
        ((0.5, -0.5, 0.5), (-0.5, 0.5, -0.5), MismatchedVertexSet),
        ((0.5, -0.5), (-0.5, 0.5, -0.5), MismatchedVertexSet),
        (((0.5, -0.5),), ((-0.5, 0.5),), MismatchedVertexSet),
        ((float("inf"), -0.5), (-0.5, 0.5), NonFiniteHeights),
        ((0.5, -0.5), (-0.5, float("nan")), NonFiniteHeights),
    ],
    ids=["both-3", "blue-2-red-3", "2d", "inf", "nan"],
)
def test_energy_and_gradient_reject_unusable_heights(z_blue, z_red, expected):
    system = load_system("entangled_pair.graph")
    config = Configuration(x=system.planar_x, z_blue=z_blue, z_red=z_red)
    for fn in (energy_entangled, gradient, stationarity_residual, lambda s, c: step(s, c, 1e-3)):
        with pytest.raises(expected):
            fn(system, config)
    weave = load_system("split_2x2.weave")
    with pytest.raises(MismatchedVertexSet):
        energy_weave(weave, config)


@pytest.mark.parametrize(
    "z_blue, z_red, message",
    [
        ((1e200, -1e200), (-1e200, 1e200), r"^initial energy inf or velocity 8e\+200 is not finite$"),
        ((1e-160, -1.0), (0.0, 1.0), r"^initial energy 1e\+160 or velocity inf is not finite$"),
    ],
    ids=["energy-overflow", "velocity-overflow"],
)
@pytest.mark.parametrize(
    "fn",
    [lambda s, c: step(s, c, 1e-3), lambda s, c: step(s, c, 1e-12), gradient, stationarity_residual],
    ids=["step-1e-3", "step-1e-12", "gradient", "stationarity_residual"],
)
def test_step_rejects_an_input_of_infinite_energy(z_blue, z_red, message, fn):
    """`step`, `gradient` and `stationarity_residual` admit their input as
    `integrate` does, with one message: heights whose stretching energy
    overflows raise InvalidInitial, where a step would otherwise run with no
    gap floor (gap_safety / inf = 0) and an infinite energy cushion, and so
    does a gap of 1e-160, whose repulsion 1 / d^2 overflows, where a step
    would otherwise fail at every dt as if dt were too large and the
    gradient would be infinite."""
    system = load_system("entangled_pair.graph")
    config = Configuration(x=system.planar_x, z_blue=z_blue, z_red=z_red)
    with pytest.raises(InvalidInitial, match=message):
        fn(system, config)


@pytest.mark.parametrize("name", ["entangled_pair.graph", "split_2x2.weave"])
def test_flow_entry_points_reject_a_flipped_crossing_sign(name):
    """An input whose heights violate a crossing sign is an invalid initial
    state, not a failed step: `step`, at any dt, `integrate`, `gradient` and
    `stationarity_residual` raise the same InvalidInitial.  The velocity
    formula takes the design's sign where the energy takes |d|, so it is not
    the energy's gradient there."""
    system = load_system(name)
    config = random_initial_configuration(system, seed=3)
    z_blue, z_red = config.z_blue.copy(), config.z_red.copy()
    z_blue[1], z_red[1] = z_red[1], z_blue[1]
    flipped = Configuration(x=config.x, z_blue=z_blue, z_red=z_red)
    message = "^initial heights violate the crossing sign at vertex 1$"
    for dt in (1e-3, 1e-9):
        with pytest.raises(InvalidInitial, match=message):
            step(system, flipped, dt)
    with pytest.raises(InvalidInitial, match=message):
        integrate(system, flipped, FlowParams(t_max=1.0))
    for fn in (gradient, stationarity_residual):
        with pytest.raises(InvalidInitial, match=message):
            fn(system, flipped)


def test_flow_entry_points_reject_non_finite_planar_coordinates():
    """One infinite planar coordinate, which makes the planar energy
    infinite: the energy, the gradient and a step raise NonFiniteHeights,
    and integrate raises InvalidInitial."""
    system = load_system("entangled_pair.graph")
    x = np.array(system.planar_x)
    x[1, 0] = np.inf
    config = Configuration(x=x, z_blue=(0.5, -0.5), z_red=(-0.5, 0.5))
    for fn in (energy_entangled, gradient, lambda s, c: step(s, c, 1e-3)):
        with pytest.raises(NonFiniteHeights, match="^planar coordinates must be finite$"):
            fn(system, config)
    with pytest.raises(InvalidInitial, match="planar coordinates must be finite"):
        integrate(system, config, FlowParams(t_max=1.0))
