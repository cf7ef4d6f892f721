"""Spectral checks, power-law fits, flatness, and limit comparison."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import WEAVE_DESIGNS, load_system, random_weave_system
from tangleflow.analysis import (
    Series,
    _commutator_norm,
    commutation_check,
    compare_limits,
    eigendecompose,
    fit_power_law,
    flatness_series,
    separation_series,
    weave_spectrum,
)
from tangleflow.dynamics import FlowParams, integrate
from tangleflow.errors import (
    EntangledInput,
    InsufficientSamples,
    InvalidParameter,
    MismatchedVertexSet,
    NonpositiveValue,
    NotConverged,
    NotSymmetric,
    UnknownComponent,
)
from tangleflow.model import (
    PeriodicQuotientGraph,
    _laplacian,
    _sorted_edges,
    build_entangled_system,
    make_configuration,
    random_initial_configuration,
)


def cycle_system(n: int):
    """Quotient n-cycle: ring edges with one wrapping edge."""
    edges = []
    for k in range(n):
        shift = (1, 0) if k == n - 1 else (0, 0)
        edges.append((k, (k + 1) % n, shift))
    graph = PeriodicQuotientGraph(
        n_vertices=n, edges=tuple(edges), lattice_basis=((1.0, 0.0), (0.0, 1.0))
    )
    return build_entangled_system(graph, tuple(1 if k % 2 == 0 else -1 for k in range(n)))


def test_cycle_eigenvalues():
    data = eigendecompose(cycle_system(4).laplacian)
    assert np.max(np.abs(data.eigenvalues - np.array([0.0, 2.0, 2.0, 4.0]))) <= 1e-10


def test_pair_eigenvalues():
    data = eigendecompose(load_system("entangled_pair.graph").laplacian)
    assert np.max(np.abs(data.eigenvalues - np.array([0.0, 4.0]))) <= 1e-10


def test_spectral_invariants():
    L = cycle_system(6).laplacian
    data = eigendecompose(L)
    n = L.shape[0]
    for k in range(n):
        phi = data.eigenvectors[:, k]
        assert np.max(np.abs(L @ phi + data.eigenvalues[k] * phi)) <= 1e-8
    gram = data.eigenvectors.T @ data.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
    # kernel vector is the normalized constant
    assert np.max(np.abs(data.eigenvectors[:, 0] - 1.0 / np.sqrt(n))) <= 1e-8
    # reconstruction with our sign convention
    recon = data.eigenvectors @ np.diag(data.eigenvalues) @ data.eigenvectors.T
    assert np.max(np.abs(L + recon)) <= 1e-8
    assert np.all(np.diff(data.eigenvalues) >= -1e-12)


def test_eigendecompose_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        A = rng.normal(size=(n, n))
        M = (A + A.T) / 2
        ours = eigendecompose(M)
        reference = np.sort(-np.linalg.eigvalsh(M))
        assert np.max(np.abs(ours.eigenvalues - reference)) <= 1e-9


def test_eigendecompose_shift_property():
    L = load_system("entangled_pair.graph").laplacian
    data = eigendecompose(L - 3.0 * np.eye(2))
    assert np.max(np.abs(data.eigenvalues - np.array([3.0, 7.0]))) <= 1e-10


def test_not_symmetric_rejected():
    with pytest.raises(NotSymmetric):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetric, match=r"expected a square matrix, got shape \(2, 3\)"):
        eigendecompose(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], "non-finite entries"),  # returned an EigenData
        ([[np.inf, 0.0], [0.0, 1.0]], "non-finite entries"),  # a RuntimeWarning from M - M.T
        (np.zeros((0, 0)), r"got shape \(0, 0\), float64"),  # a raw ValueError
        ([["a", "0"], ["0", "1"]], r"real matrix, got shape \(2, 2\), <U1"),  # a raw ValueError
        ([[1j, 0.0], [0.0, 1.0]], r"real matrix, got shape \(2, 2\), complex128"),  # a raw TypeError
        ([[1.0, 0.0], [0.0]], "rows of unequal lengths"),  # a raw ValueError
    ],
    ids=["nan", "inf", "empty", "text", "complex", "ragged"],
)
def test_malformed_matrix_rejected(matrix, message):
    with pytest.raises(NotSymmetric, match=message):
        eigendecompose(matrix)


def test_commutation_check_bundled_and_negative_control():
    for name in WEAVE_DESIGNS:
        assert commutation_check(load_system(name)) == 0.0
    rng = np.random.default_rng(29)
    for _ in range(4):
        system = random_weave_system(rng)
        assert commutation_check(system) == 0.0
    # a stand-in whose blue path 0-1 and red path 1-2 do not commute
    stand_in = SimpleNamespace(
        kind="weave", n_vertices=3, _height_edges=(np.array([[0], [1]]), np.array([[1], [2]]))
    )
    assert commutation_check(stand_in) == 1.0
    with pytest.raises(TypeError, match="expected a weave system, got kind='entangled-graph'"):
        commutation_check(load_system("entangled_pair.graph"))


def test_edge_list_commutator_matches_the_dense_one():
    """The sparse product over the edge lists gives the dense commutator's
    sup norm exactly, on random loop-free multigraph pairs on n vertices."""
    rng = np.random.default_rng(31)
    nonzero = 0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        blue, red = (
            _sorted_edges(rng.integers(0, n, m), rng.integers(0, n, m))
            for m in rng.integers(1, 2 * n, size=2)
        )
        LB, LR = _laplacian(*blue, n), _laplacian(*red, n)
        dense = float(np.max(np.abs(LB @ LR - LR @ LB)))
        assert _commutator_norm(blue, red, n) == dense
        nonzero += dense > 0.0
    assert nonzero >= 40


def test_weave_spectrum_matches_the_dense_eigensolve():
    for name in WEAVE_DESIGNS:
        system = load_system(name)
        want = np.linalg.eigvalsh(-system.laplacian)
        got = weave_spectrum(system)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
    assert weave_spectrum(load_system("split_2x2.weave")).tolist() == [0.0, 4.0, 4.0, 8.0]
    with pytest.raises(TypeError):
        weave_spectrum(load_system("entangled_pair.graph"))


def test_fit_power_law_exact_data():
    t = np.linspace(10.0, 1000.0, 200)
    report = fit_power_law(Series("cube", t, 3.0 * t ** (1.0 / 3.0)), (10.0, 1000.0))
    assert abs(report.slope - 1.0 / 3.0) <= 1e-6
    assert report.r_squared > 0.999999
    linear = fit_power_law(Series("line", t, 5.0 * t), (10.0, 1000.0))
    assert abs(linear.slope - 1.0) <= 1e-6
    assert linear.series_name == "line"
    assert linear.window == (10.0, 1000.0)


def test_fit_power_law_errors():
    t = np.linspace(1.0, 100.0, 30)
    with pytest.raises(InsufficientSamples):
        fit_power_law(Series("s", t, t), (90.0, 100.0))
    values = np.array(t)
    values[5] = -1.0
    with pytest.raises(NonpositiveValue):
        fit_power_law(Series("s", t, values), (1.0, 100.0))
    with pytest.raises(ValueError):
        fit_power_law(Series("s", t, t), (100.0, 1.0))


@pytest.mark.parametrize("window", [(1.0,), ("a", "b"), (1.0, 50.0, 100.0), None, (1.0 + 1j, 50.0)])
def test_fit_power_law_window_is_two_numbers(window):
    """A window that is not exactly two real numbers is an InvalidParameter
    with the message of an out-of-order window."""
    t = np.linspace(1.0, 100.0, 30)
    with pytest.raises(InvalidParameter) as err:
        fit_power_law(Series("s", t, t), window)
    assert str(err.value) == f"window must satisfy 0 < lo < hi, got {window!r}"


def untangled_pair_trajectory(t_max=200.0):
    system = load_system("untangled_pair.graph")
    config = make_configuration(system, (0.5, 0.5), (-0.5, -0.5))
    return system, integrate(system, config, FlowParams(t_max=t_max))


def test_separation_series_graph():
    system, traj = untangled_pair_trajectory()
    series = separation_series(traj)
    assert len(series) == 1
    s = series[0]
    assert s.name == "separation"
    assert s.times[0] == 0.0
    assert s.values[0] == pytest.approx(1.0)  # initial mean gap
    assert np.all(np.diff(s.values) > 0)


def test_separation_series_entangled_rejected():
    system = load_system("entangled_pair.graph")
    config = random_initial_configuration(system, seed=1)
    traj = integrate(system, config, FlowParams(t_max=5.0))
    with pytest.raises(EntangledInput):
        separation_series(traj)


def test_separation_series_weave_cuts():
    system = load_system("split_2x2.weave")
    config = random_initial_configuration(system, seed=7)
    traj = integrate(system, config, FlowParams(t_max=50.0))
    series = separation_series(traj)
    assert len(series) == 1  # K=2 -> one cut
    assert series[0].name == "separation_cut_1"
    assert series[0].values[-1] > series[0].values[0]

    system3 = load_system("three_blocks_6x6.weave")
    config3 = random_initial_configuration(system3, seed=7)
    traj3 = integrate(system3, config3, FlowParams(t_max=20.0))
    series3 = separation_series(traj3)
    assert [s.name for s in series3] == ["separation_cut_1", "separation_cut_2"]


def test_flatness_series_graph():
    system, traj = untangled_pair_trajectory(t_max=50.0)
    for component in ["blue", "red"]:
        series = flatness_series(traj, component)
        assert np.max(series.values) <= 1e-12  # symmetric start stays flat
    with pytest.raises(UnknownComponent):
        flatness_series(traj, "green")


def test_flatness_series_weave():
    system = load_system("three_blocks_6x6.weave")
    config = random_initial_configuration(system, seed=11)
    traj = integrate(system, config, FlowParams(t_max=20.0))
    for k in [1, 2, 3]:
        series = flatness_series(traj, k)
        assert series.values.shape == series.times.shape
        assert np.all(series.values >= 0)
    with pytest.raises(UnknownComponent):
        flatness_series(traj, 4)


def test_compare_limits_identity_and_not_converged():
    system = load_system("entangled_pair.graph")
    config = random_initial_configuration(system, seed=1)
    traj = integrate(system, config, FlowParams(t_max=100.0))
    assert traj.status == "converged"
    ok, residual = compare_limits(traj, traj, tol=1e-8)
    assert ok and residual == 0.0

    _, truncated = untangled_pair_trajectory(t_max=5.0)
    with pytest.raises(NotConverged):
        compare_limits(traj, truncated, tol=1e-4)


def test_compare_limits_of_different_sizes():
    small = SimpleNamespace(status="converged", heights=np.zeros((3, 4)))
    large = SimpleNamespace(status="converged", heights=np.zeros((1, 32)))
    with pytest.raises(MismatchedVertexSet) as err:
        compare_limits(small, large)
    assert str(err.value) == "configurations have different sizes: (2,) vs (16,)"


def test_separation_series_rejects_an_entangled_weave_run():
    run = SimpleNamespace(system=load_system("checker_4x4.weave"), t=np.zeros(1))
    with pytest.raises(EntangledInput, match="separation is undefined for an entangled weave run"):
        separation_series(run)


def test_compare_limits_two_seeds_agree():
    system = load_system("entangled_pair.graph")
    params = FlowParams(t_max=100.0)
    traj_a = integrate(system, random_initial_configuration(system, seed=1), params)
    traj_b = integrate(system, random_initial_configuration(system, seed=2), params)
    ok, residual = compare_limits(traj_a, traj_b, tol=1e-4)
    assert ok and residual <= 1e-4


def assert_eigen_contract(M, data):
    n = M.shape[0]
    reference = np.linalg.eigvalsh(-M)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert np.all(np.abs(data.eigenvalues - reference) <= 1e-9 * scale)
    assert np.all(np.diff(data.eigenvalues) >= 0.0)
    assert not np.any(np.signbit(data.eigenvalues) & (data.eigenvalues == 0.0))  # no -0.0
    V = data.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-10
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
    assert np.all(lead > 0.0)
    # each column is an eigenvector of -M for its eigenvalue
    assert np.max(np.abs(-M @ V - V * data.eigenvalues)) <= 1e-9 * scale


def test_eigendecompose_contract_on_large_checkerboard_weave():
    from tangleflow.model import WeaveDesign, build_weave_system

    n = 14
    sign = tuple(tuple(1 if (i + j) % 2 == 0 else -1 for j in range(n)) for i in range(n))
    system = build_weave_system(WeaveDesign(n_blue=n, n_red=n, sign=sign, spacing=1.0))
    M = np.asarray(system.laplacian)
    data = eigendecompose(M)
    assert_eigen_contract(M, data)
    # connected Laplacian: the constant kernel vector comes first, positive
    assert abs(data.eigenvalues[0]) <= 1e-12
    assert np.max(np.abs(data.eigenvectors[:, 0] - 1.0 / np.sqrt(n * n))) <= 1e-12


def test_eigendecompose_contract_on_random_symmetric_matrices():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        A = rng.normal(size=(n, n))
        M = A + A.T
        assert_eigen_contract(M, eigendecompose(M))
        # integer matrices with repeated eigenvalues and exact zeros
        B = rng.integers(-1, 2, size=(n, n)).astype(float)
        B = np.triu(B) + np.triu(B, 1).T
        assert_eigen_contract(B, eigendecompose(B))
        # the negated zero matrix is all -0.0, whose spectrum is reported as +0.0
        assert_eigen_contract(np.zeros((n, n)), eigendecompose(np.zeros((n, n))))
