"""Model construction: Laplacians, harmonic coordinates, configurations."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import WEAVE_DESIGNS, load_system, random_graph_system, random_weave_system
from tangleflow.errors import (
    DegenerateSize,
    DisconnectedGraph,
    InvalidGraph,
    InvalidLattice,
    MismatchedVertexSet,
    SignViolation,
    ZeroSignEntry,
)
from tangleflow.model import (
    PeriodicQuotientGraph,
    WeaveDesign,
    build_entangled_system,
    build_weave_system,
    harmonic_planar_coordinates,
    make_configuration,
    random_initial_configuration,
)

SQUARE_BASIS = ((1.0, 0.0), (0.0, 1.0))


def pair_graph():
    """Two vertices joined by a double edge wrapping the first period."""
    return PeriodicQuotientGraph(
        n_vertices=2,
        edges=((0, 1, (0, 0)), (1, 0, (1, 0))),
        lattice_basis=SQUARE_BASIS,
    )


def test_pair_laplacian_matches_hand_value():
    system = build_entangled_system(pair_graph(), (1, -1))
    assert np.array_equal(system.laplacian, np.array([[-2.0, 2.0], [2.0, -2.0]]))


def test_laplacian_rows_sum_to_zero_and_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(10):
        system = random_graph_system(rng)
        L = system.laplacian
        assert np.array_equal(L, L.T)
        assert np.max(np.abs(L.sum(axis=1))) == 0.0
        off = L - np.diag(np.diag(L))
        assert np.all(off >= 0)


def test_crossing_map_accepts_mapping_keyed_by_vertices():
    system = build_entangled_system(pair_graph(), {0: 1, 1: -1})
    assert list(system.sign) == [1, -1]


def test_mismatched_vertex_set():
    with pytest.raises(MismatchedVertexSet):
        build_entangled_system(pair_graph(), (1,))
    with pytest.raises(MismatchedVertexSet):
        build_entangled_system(pair_graph(), {0: 1})
    with pytest.raises(MismatchedVertexSet):
        build_entangled_system(pair_graph(), {0: 1, 2: -1})


def test_disconnected_graph_rejected():
    graph = PeriodicQuotientGraph(
        n_vertices=4,
        edges=((0, 1, (0, 0)), (1, 0, (1, 0)), (2, 3, (0, 0)), (3, 2, (1, 0))),
        lattice_basis=SQUARE_BASIS,
    )
    with pytest.raises(DisconnectedGraph):
        build_entangled_system(graph, (1, 1, 1, 1))


def test_invalid_lattice_rejected():
    graph = PeriodicQuotientGraph(
        n_vertices=2,
        edges=((0, 1, (0, 0)), (1, 0, (1, 0))),
        lattice_basis=((1.0, 2.0), (2.0, 4.0)),
    )
    with pytest.raises(InvalidLattice):
        build_entangled_system(graph, (1, -1))


def test_zero_shift_self_loop_rejected():
    graph = PeriodicQuotientGraph(
        n_vertices=1,
        edges=((0, 0, (0, 0)),),
        lattice_basis=SQUARE_BASIS,
    )
    with pytest.raises(InvalidGraph):
        build_entangled_system(graph, (1,))


def test_self_loop_with_shift_allowed_and_cancels_in_laplacian():
    graph = PeriodicQuotientGraph(
        n_vertices=1,
        edges=((0, 0, (1, 0)),),
        lattice_basis=SQUARE_BASIS,
    )
    system = build_entangled_system(graph, (1,))
    assert system.laplacian.shape == (1, 1)
    assert system.laplacian[0, 0] == 0.0


def test_invalid_sign_values_rejected():
    with pytest.raises(InvalidGraph):
        build_entangled_system(pair_graph(), (1, 0))
    with pytest.raises(InvalidGraph):
        build_entangled_system(pair_graph(), (1, 2))


def test_edge_endpoint_out_of_range_rejected():
    graph = PeriodicQuotientGraph(
        n_vertices=2,
        edges=((0, 2, (0, 0)), (1, 0, (1, 0))),
        lattice_basis=SQUARE_BASIS,
    )
    with pytest.raises(InvalidGraph):
        build_entangled_system(graph, (1, -1))


def test_weave_build_smallest():
    design = WeaveDesign(n_blue=2, n_red=2, sign=((1, -1), (-1, 1)), spacing=1.0)
    system = build_weave_system(design)
    assert system.n_vertices == 4
    L = system.laplacian
    assert np.max(np.abs(L.sum(axis=1))) == 0.0
    assert np.all(np.diag(L) == -4.0)
    assert np.array_equal(L, system.blue_laplacian + system.red_laplacian)


def test_weave_commutator_is_exactly_zero():
    rng = np.random.default_rng(11)
    for _ in range(8):
        system = random_weave_system(rng)
        LB, LR = system.blue_laplacian, system.red_laplacian
        assert np.max(np.abs(LB @ LR - LR @ LB)) == 0.0
    for name in WEAVE_DESIGNS:
        system = load_system(name)
        LB, LR = system.blue_laplacian, system.red_laplacian
        assert np.max(np.abs(LB @ LR - LR @ LB)) == 0.0


def test_weave_errors():
    with pytest.raises(ZeroSignEntry):
        build_weave_system(WeaveDesign(n_blue=2, n_red=2, sign=((1, 0), (-1, 1)), spacing=1.0))
    with pytest.raises(DegenerateSize):
        build_weave_system(WeaveDesign(n_blue=0, n_red=2, sign=(), spacing=1.0))


def test_value_errors_are_tangleflow_errors():
    """Out-of-range values raise typed errors that are both TangleflowError
    and ValueError, so either base catches them."""
    from tangleflow.dynamics import FlowParams
    from tangleflow.errors import InvalidParameter, InvalidWeave, TangleflowError

    def graph(edges=((0, 1, (0, 0)), (1, 0, (1, 0))), basis=SQUARE_BASIS, sign=(1, -1)):
        return lambda: build_entangled_system(
            PeriodicQuotientGraph(n_vertices=2, edges=edges, lattice_basis=basis), sign
        )

    def weave(sign, spacing=1.0):
        return lambda: build_weave_system(
            WeaveDesign(n_blue=2, n_red=2, sign=sign, spacing=spacing)
        )

    cases = [
        (InvalidWeave, weave(((1, -1),))),  # one row for two blue threads
        (InvalidWeave, weave(((1, -1), (1,)))),  # short row
        (InvalidWeave, weave(((1, 2), (-1, 1)))),  # entry not +1/-1
        (InvalidWeave, weave(((1.5, -1), (-1, 1)))),  # was truncated to +1
        (InvalidWeave, weave(((1, -1), (-1, 1)), spacing=0.0)),
        (InvalidWeave, weave(((1, -1), (-1, 1)), spacing=float("inf"))),  # NaN layout
        (InvalidLattice, graph(basis=((float("nan"), 0.0), (0.0, 1.0)))),
        (InvalidGraph, graph(edges=((0, 1, (0.5, 0)), (1, 0, (1, 0))))),  # was truncated to (0, 0)
        (InvalidGraph, graph(edges=((0, 1.0, (0, 0)), (1, 0, (1, 0))))),
        (InvalidGraph, graph(sign=("+", -1))),
        (InvalidGraph, graph(sign=(float("nan"), -1))),
        (InvalidGraph, graph(sign=(None, -1))),
        (InvalidParameter, lambda: FlowParams(dt_min=0.0)),
        (InvalidParameter, lambda: FlowParams(t_max=float("inf"))),
        (InvalidParameter, lambda: FlowParams(grad_tol=-1.0)),
        (InvalidParameter, lambda: FlowParams(record_stride=0)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=0.0)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=float("nan"))),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=float("inf"))),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), -1)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 1.5)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), "3")),
    ]
    for expected, build in cases:
        with pytest.raises(expected) as err:
            build()
        assert isinstance(err.value, TangleflowError)
        assert isinstance(err.value, ValueError)


def test_weave_thread_structure():
    system = load_system("checker_4x4.weave")
    # blue thread i visits v_{i,0..3}; red thread j visits v_{0..3,j}
    assert system.blue_threads[0] == (0, 1, 2, 3)
    assert system.blue_threads[2] == (8, 9, 10, 11)
    assert system.red_threads[1] == (1, 5, 9, 13)
    assert len(system.blue_threads) == 4 and len(system.red_threads) == 4


def test_weave_assembly_matches_loop_reference():
    """The array-built weave structure equals a per-vertex loop construction
    exactly (all arithmetic is integer-valued or identical per entry)."""
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 5)] + [
        tuple(int(k) for k in rng.integers(1, 8, size=2)) for _ in range(15)
    ]
    for nb, nr in shapes:
        sign = tuple(tuple(int(s) for s in rng.choice([-1, 1], size=nr)) for _ in range(nb))
        spacing = float(rng.choice([1.0, 0.7, 2.5]))
        system = build_weave_system(WeaveDesign(n_blue=nb, n_red=nr, sign=sign, spacing=spacing))
        n = nb * nr
        laplacians = {"blue": np.zeros((n, n)), "red": np.zeros((n, n))}
        edges = []
        grid = np.zeros((n, 2))
        for i in range(nb):
            for j in range(nr):
                v = i * nr + j
                for family, w in (("blue", i * nr + (j + 1) % nr), ("red", (i + 1) % nb * nr + j)):
                    if w != v:
                        L = laplacians[family]
                        L[v, w] += 1.0
                        L[w, v] += 1.0
                        L[v, v] -= 1.0
                        L[w, w] -= 1.0
                edges.append((v, i * nr + (j + 1) % nr, (1, 0) if j == nr - 1 else (0, 0)))
                edges.append((v, (i + 1) % nb * nr + j, (0, 1) if i == nb - 1 else (0, 0)))
                grid[v] = ((j - (nr - 1) / 2) * spacing, (i - (nb - 1) / 2) * spacing)
        assert np.array_equal(system.blue_laplacian, laplacians["blue"])
        assert np.array_equal(system.red_laplacian, laplacians["red"])
        assert system.edges == tuple(edges)
        assert np.array_equal(system.planar_x, grid)
        assert np.array_equal(system.sign, np.array(sign).reshape(n))
        assert not system.laplacian.flags.writeable


def test_harmonic_pair_positions():
    system = build_entangled_system(pair_graph(), (1, -1))
    x = harmonic_planar_coordinates(system)
    # hand solve: both edges force x1 - x0 = a1/2, barycenter pinned at 0
    assert np.allclose(x[0], [-0.25, 0.0], atol=1e-12)
    assert np.allclose(x[1], [0.25, 0.0], atol=1e-12)


def test_harmonic_honeycomb_positions():
    system = load_system("honeycomb.graph")
    x = harmonic_planar_coordinates(system)
    delta = x[1] - x[0]
    # hand solve: x1 - x0 = (a1 + a2)/3 for the three-edge hexagonal quotient
    assert np.allclose(delta, [0.5, 0.8660254037844386], atol=1e-10)
    assert np.allclose(x.sum(axis=0), [0.0, 0.0], atol=1e-10)


def test_harmonic_residual_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        system = random_graph_system(rng)
        x = harmonic_planar_coordinates(system)
        resid = np.zeros_like(x)
        B = np.asarray(system.graph.lattice_basis, dtype=float)
        for u, v, (sx, sy) in system.graph.edges:
            shift = sx * B[0] + sy * B[1]
            resid[u] += x[v] + shift - x[u]
            resid[v] += x[u] - shift - x[v]
        assert np.max(np.abs(resid)) <= 1e-10
        assert np.max(np.abs(x.sum(axis=0))) <= 1e-9


def test_weave_grid_coordinates():
    design = WeaveDesign(n_blue=2, n_red=2, sign=((1, 1), (1, 1)), spacing=1.0)
    system = build_weave_system(design)
    x = harmonic_planar_coordinates(system)
    # centered unit grid: spacing 1 between adjacent parallel lines
    assert np.allclose(x[0], [-0.5, -0.5], atol=1e-12)
    assert np.allclose(x[3], [0.5, 0.5], atol=1e-12)


def test_make_configuration_valid_and_invalid():
    system = build_entangled_system(pair_graph(), (1, -1))
    config = make_configuration(system, (1.0, -1.0), (-1.0, 1.0))
    assert np.array_equal(config.z_blue, [1.0, -1.0])
    with pytest.raises(SignViolation) as err:
        make_configuration(system, (1.0, 1.0), (-1.0, 1.0))
    assert err.value.vertex == 1
    # zero gap is a violation even when the other vertices are fine
    with pytest.raises(SignViolation):
        make_configuration(system, (1.0, 0.5), (-1.0, 0.5))


def test_random_initial_configuration_contract():
    system = load_system("checker_4x4.weave")
    a = random_initial_configuration(system, seed=42)
    b = random_initial_configuration(system, seed=42)
    c = random_initial_configuration(system, seed=43)
    assert np.array_equal(a.z_blue, b.z_blue) and np.array_equal(a.z_red, b.z_red)
    assert not np.array_equal(a.z_blue, c.z_blue)
    total = float(np.sum(a.z_blue + a.z_red))
    assert abs(total) <= 1e-12
    gaps = a.z_blue - a.z_red
    assert np.all(np.sign(gaps) == system.sign)
    assert np.all(np.abs(gaps) >= 1.0)  # at least 2 * gap_scale by construction


def test_configuration_arrays_immutable():
    system = build_entangled_system(pair_graph(), (1, -1))
    config = make_configuration(system, (1.0, -1.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        config.z_blue[0] = 5.0
    with pytest.raises(ValueError):
        system.laplacian[0, 0] = 1.0
