"""Energy, gradient, and guarded adaptive integration of the descent flow."""
from __future__ import annotations

import weakref

import numpy as np
import pytest

from conftest import load_system, random_graph_system, random_weave_system
from tangleflow import dynamics
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


def test_pair_energy_closed_form():
    system, config = pair_config(0.3)
    # planar term 0.5 (two half-period edges), quadratic 16 a^2, repulsion 1/a
    expected = 0.5 + 16 * 0.09 + 1.0 / 0.3
    assert energy_entangled(system, config) == pytest.approx(expected, rel=1e-14)


def test_energy_matches_brute_force_summation():
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


def test_integrate_untangled_pair_follows_cube_root_growth():
    system = load_system("untangled_pair.graph")
    config = make_configuration(system, (0.5, 0.5), (-0.5, -0.5))
    traj = integrate(system, config, FlowParams(t_max=1000.0))
    assert traj.status == "truncated"
    final = traj.samples[-1]
    gap = float(final.config.z_blue[0] - final.config.z_red[0])
    # symmetric flow: gap' = 2/gap^2, so gap^3 = 1 + 6 t exactly
    assert gap**3 == pytest.approx(1.0 + 6.0 * final.t, rel=1e-3)
    seps = [abs(s.m_blue - s.m_red) for s in traj.samples]
    assert all(b > a for a, b in zip(seps, seps[1:]))


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
        ("untangled_pair.graph", 11, 518, 50.0, 0.7929604794788951),
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


def test_guard_reason_returns_gaps_or_reason():
    """An acceptable state yields its absolute gaps, bit for bit; each kind
    of unacceptable state yields its reason."""
    system = load_system("entangled_pair.graph")  # signs (+1, -1)
    kernel = dynamics._StepKernel(system)

    def guard(z_blue, z_red, floor=1e-3):
        with np.errstate(**dynamics._QUIET):
            return dynamics._guard_reason(kernel, np.array(z_blue + z_red), floor)

    rng = np.random.default_rng(5)
    for seed in range(20):
        config = random_initial_configuration(system, seed=seed, gap_scale=float(rng.uniform(1e-2, 1e2)))
        gaps = guard(tuple(config.z_blue), tuple(config.z_red))
        assert not isinstance(gaps, str)
        assert np.array_equal(gaps, np.abs(config.z_blue - config.z_red))
    # finite heights whose sum overflows take the slow path and still pass
    gaps = guard((1e308, 1e308), (0.0, 1.5e308))
    assert np.array_equal(gaps, [1e308, 0.5e308])
    assert guard((float("nan"), -1.0), (-1.0, 1.0)) == "non-finite heights"
    assert guard((float("inf"), -1.0), (-1.0, 1.0)) == "non-finite heights"
    assert guard((-1.0, -1.0), (1.0, 1.0)) == "crossing sign flipped"
    assert guard((0.25, -0.25), (-0.25, 0.25), floor=1.0) == (
        "minimum gap fell below the floor 1.000e+00"
    )


def test_step_kernel_matches_reference_arithmetic():
    """The velocity and energy of the step loop equal, bit for bit, the
    plain formulas: 2 (L z) +- sign / d^2 with matmul and an integer sign,
    and -(z L z) summed with `@`."""
    rng = np.random.default_rng(17)
    systems = [load_system(name) for name in ("untangled_pair.graph", "honeycomb.graph", "three_blocks_6x6.weave")]
    systems += [random_graph_system(rng) for _ in range(4)] + [random_weave_system(rng) for _ in range(4)]
    for system in systems:
        n = system.n_vertices
        kernel = dynamics._StepKernel(system)
        for trial in range(10):
            scale = 10.0 ** rng.uniform(-2, 2)
            config = random_initial_configuration(system, seed=trial, gap_scale=scale)
            zb, zr = config.z_blue, config.z_red
            d = zb - zr
            repulsion = system.sign / (d * d)
            expected = np.concatenate(
                (2.0 * (system.blue_laplacian @ zb) + repulsion, 2.0 * (system.red_laplacian @ zr) - repulsion)
            )
            assert np.array_equal(dynamics._velocity(kernel, np.concatenate((zb, zr))), expected)
            x = system.planar_x + rng.normal(size=(n, 2))
            planar = dynamics._velocity(kernel, np.concatenate((zb, zr, x.ravel())))
            assert np.array_equal(planar[:2 * n], expected)
            assert np.array_equal(planar[2 * n:], 2.0 * system._edge_tension(x).ravel())
            energy = (
                1.5
                + float(-(zb @ system.blue_laplacian @ zb) - (zr @ system.red_laplacian @ zr))
                + float((1.0 / np.abs(d)).sum())
            )
            assert dynamics._energy(system, zb, zr, np.abs(d), 1.5) == energy


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
        (102.30750569423567, 12.361971896577348, -0.045767557082182407, -12.376241049255464, -102.24746898447538),
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


def test_planar_flow_relaxes_to_harmonic_positions():
    from tangleflow.model import build_entangled_system, harmonic_planar_coordinates
    from tangleflow.model import PeriodicQuotientGraph

    graph = PeriodicQuotientGraph(
        n_vertices=2,
        edges=((0, 1, (0, 0)), (1, 0, (1, 0))),
        lattice_basis=((1.0, 0.0), (0.0, 1.0)),
    )
    system = build_entangled_system(graph, (1, -1))
    x0 = np.array([[0.3, 0.4], [-0.3, -0.4]])
    config = Configuration(x=x0, z_blue=np.array([1.0, -1.0]), z_red=np.array([-1.0, 1.0]))
    traj = integrate(system, config, FlowParams(t_max=50.0), flow_planar=True)
    final_x = traj.samples[-1].config.x
    target = harmonic_planar_coordinates(system)
    shift = final_x.mean(axis=0) - target.mean(axis=0)
    assert np.max(np.abs(final_x - shift - target)) <= 1e-6


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
    for fn in (energy_entangled, gradient, stationarity_residual):
        with pytest.raises(expected):
            fn(system, config)
    weave = load_system("split_2x2.weave")
    with pytest.raises(MismatchedVertexSet):
        energy_weave(weave, config)
