"""Energy, gradient, and guarded adaptive integration of the descent flow."""
from __future__ import annotations

import logging
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
    random_graph_system,
    random_weave_system,
)
from tangleflow import dynamics
from tangleflow.analysis import separation_series
from tangleflow.dynamics import (
    FlowParams,
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
    MismatchedVertexSet,
    NonFiniteHeights,
    StepUnderflow,
    ZeroGap,
)
from tangleflow.model import (
    Configuration,
    WeaveDesign,
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
    kernel = dynamics._StepKernel(system, config.x)
    np.concatenate((config.z_blue, config.z_red), out=kernel.y.flat)
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


def test_integrate_pair_converges_to_closed_form():
    system = load_system("entangled_pair.graph")
    config = random_initial_configuration(system, seed=1)
    traj = integrate(system, config, FlowParams(t_max=1e3))
    assert traj.status == "converged"
    final = traj.samples[-1].config
    assert np.max(np.abs(final.z_blue - np.array([A_STAR, -A_STAR]))) <= 1e-4
    assert np.max(np.abs(final.z_red - np.array([-A_STAR, A_STAR]))) <= 1e-4
    assert stationarity_residual(system, final) <= 1e-8


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
        kernel = dynamics._StepKernel(system)
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
    energy to rel 1e-13, and its gap and barycenter diagnostics equal the
    plain numpy formulas bit for bit, on RK4 samples and, on one untangled
    run past the switch, on Rosenbrock steps and grid samples."""
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
        if system.kind == "weave":
            members = [system._component_vertices(c) for c in tangle_decomposition(system).components]
        else:
            members = []
        energy = energy_of(system)
        traj = integrate(system, config, params)
        assert len(traj.samples) > 2
        for s in traj.samples:
            zb, zr = s.config.z_blue, s.config.z_red
            gaps = np.abs(zb - zr)
            assert s.energy == energy(system, s.config)
            assert s.energy == pytest.approx(brute_force_energy(system, s.config), rel=1e-13)
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


@pytest.mark.parametrize("name", ["untangled_pair.graph", "three_blocks_6x6.weave"])
def test_kernel_counts_every_velocity_evaluation(caplog, monkeypatch, name):
    """A run's `_StepKernel` counts every call of the module-level
    `_velocity` on it, through both phases (t_max=50, past the switch at
    t = 10.33), and the Rosenbrock INFO line reports the count's change over
    that phase."""
    caplog.set_level(logging.INFO, logger="tangleflow")
    velocity, rosenbrock_phase = dynamics._velocity, dynamics._rosenbrock_phase
    kernels, phases = [], []

    def counted_velocity(kernel, *args):
        kernels.append(kernel)
        return velocity(kernel, *args)

    def watched_phase(kernel, *args):
        start = kernel.evaluations
        result = rosenbrock_phase(kernel, *args)
        phases.append((kernel, kernel.evaluations - start))
        return result

    monkeypatch.setattr(dynamics, "_velocity", counted_velocity)
    monkeypatch.setattr(dynamics, "_rosenbrock_phase", watched_phase)
    system = load_system(name)
    integrate(system, random_initial_configuration(system, seed=11), FlowParams(t_max=50.0))
    [(kernel, in_phase)] = phases
    assert all(k is kernel for k in kernels)
    assert kernel.evaluations == len(kernels) > in_phase > 0
    summary = caplog.records[-1].getMessage()
    assert summary.startswith("Rosenbrock phase ended at t=50: ")
    assert f" W refreshes, {in_phase} velocity evaluations, " in summary


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
    differences the run to 1e14 ends truncated, after ~4,500 `_end_state`
    calls (2,915 samples); the budget of 30,000 calls makes a storm fail
    fast instead of hanging."""
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


def test_skipped_grid_samples_leave_the_steps_unchanged(caplog, monkeypatch):
    """Grid samples are read off accepted steps and never steer them: when
    every grid state fails the guard, each is skipped (counted, not
    recorded), and the run records exactly the other samples of the
    unpatched run, bit for bit."""
    system = load_system("untangled_pair.graph")
    config = random_initial_configuration(system, seed=11)
    params = FlowParams(t_max=1e3)
    caplog.set_level(logging.INFO, logger="tangleflow")
    full = integrate(system, config, params)
    recorded = caplog.records[-1].getMessage()
    assert recorded.endswith(" grid samples recorded, 0 skipped")
    n_grid = int(recorded.split(" velocity evaluations, ")[1].split()[0])

    ros_step, end_state = dynamics._ros_step, dynamics._end_state
    ends = []  # the end state of each Rosenbrock step

    def remembered_step(*args):
        y_new, error = ros_step(*args)
        ends.append(y_new)
        return y_new, error

    def failing_grid_state(kernel, y, *args):
        if ends and y is not ends[-1]:
            return "minimum gap fell below the floor"
        return end_state(kernel, y, *args)

    monkeypatch.setattr(dynamics, "_ros_step", remembered_step)
    monkeypatch.setattr(dynamics, "_end_state", failing_grid_state)
    caplog.clear()
    patched = integrate(system, config, params)
    assert caplog.records[-1].getMessage().endswith(f" 0 grid samples recorded, {n_grid} skipped")
    energies = {s.t: s.energy for s in full.samples}
    assert len(patched.samples) == len(full.samples) - n_grid
    assert all(energies[s.t] == s.energy for s in patched.samples)


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
    kernel = dynamics._StepKernel(build_weave_system(WeaveDesign(1, 1, ((1,),))))

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


def test_guard_reason_returns_gaps_or_reason():
    """An acceptable state yields its absolute gaps and their minimum, bit
    for bit; each kind of unacceptable state yields its reason."""
    system = load_system("entangled_pair.graph")  # signs (+1, -1)
    kernel = dynamics._StepKernel(system)

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
        kernel = dynamics._StepKernel(system)
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
    kernel = dynamics._StepKernel(system)
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
