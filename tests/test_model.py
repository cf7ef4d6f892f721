"""Model construction: Laplacians, harmonic coordinates, configurations."""
from __future__ import annotations

import contextlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import WEAVE_DESIGNS, load_system, random_graph_system, random_weave_system
from tangleflow.analysis import commutation_check, weave_spectrum
from tangleflow.cli import main
from tangleflow.designio import design_to_system, load_design, serialize_design
from tangleflow.errors import (
    DegenerateSize,
    DisconnectedGraph,
    InvalidGraph,
    InvalidLattice,
    MismatchedVertexSet,
    NonFiniteHeights,
    SignViolation,
    TangleflowError,
    WrongKind,
    ZeroSignEntry,
)
from tangleflow.model import (
    Configuration,
    PeriodicQuotientGraph,
    WeaveDesign,
    _laplacian,
    build_entangled_system,
    build_weave_system,
    harmonic_planar_coordinates,
    make_configuration,
    random_initial_configuration,
)
from tangleflow.dynamics import energy_entangled, energy_weave
from tangleflow.topology import (
    _thread_classes,
    classify_entangled_graph,
    minimal_weaved_components,
    tangle_decomposition,
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
    # the height edges are the graph's edges without its shifted loops, as
    # sorted (min, max) pairs with parallel edges repeated; both families
    # share them, and the Laplacian is built from them
    loops = parallel = 0
    for _ in range(40):
        system = random_graph_system(rng, max_vertices=5)
        pairs = [(min(u, v), max(u, v)) for u, v, _ in system.edges]
        loops += sum(u == v for u, v in pairs)
        parallel += len(set(pairs)) < len(pairs)
        expected = np.array(sorted(p for p in pairs if p[0] != p[1]), dtype=int).reshape(-1, 2).T
        blue, red = system._height_edges
        assert red is blue and not blue.flags.writeable
        assert blue.shape == expected.shape and np.array_equal(blue, expected)
        assert np.array_equal(_laplacian(*blue, system.n_vertices), system.laplacian)
    assert loops and parallel


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
    assert all(edges.shape == (2, 0) for edges in system._height_edges)


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
    from tangleflow.analysis import Series
    from tangleflow.dynamics import FlowParams, energy_entangled, energy_weave
    from tangleflow.errors import InvalidParameter, InvalidWeave, TangleflowError

    def graph(edges=((0, 1, (0, 0)), (1, 0, (1, 0))), basis=SQUARE_BASIS, sign=(1, -1), n=2):
        return lambda: build_entangled_system(
            PeriodicQuotientGraph(n_vertices=n, edges=edges, lattice_basis=basis), sign
        )

    def layout(name, x_shape):
        system = load_system(name)
        config = random_initial_configuration(system, 1)
        x = np.zeros(x_shape)
        energy = energy_weave if system.kind == "weave" else energy_entangled
        return lambda: energy(system, Configuration(x=x, z_blue=config.z_blue, z_red=config.z_red))

    t = np.linspace(1.0, 100.0, 30)

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
        (InvalidWeave, weave(((1, -1), (-1, 1)), spacing=1e308)),  # infinite lattice period, NaN layout
        (InvalidWeave, lambda: build_weave_system(WeaveDesign(n_blue=True, n_red=2, sign=((1, -1),)))),
        (InvalidLattice, graph(basis=((1e300, 0.0), (0.0, 1e300)))),  # was a raw OverflowError
        (InvalidLattice, graph(basis=(("1", 0.0), (0.0, 1.0)))),  # was a raw ValueError
        (InvalidGraph, graph(edges=((0, 1, 0), (1, 0, (1, 0))))),  # int shift, was a raw TypeError
        (InvalidGraph, graph(edges=((0, 1, (0, 0)), (1, 0, (2**70, 0))))),  # was a raw OverflowError
        (InvalidGraph, graph(edges=((0, 1, (0, 0)), (1, 0, (2**62, 0))), basis=((1e150, 0.0), (0.0, 1e150)))),
        (InvalidLattice, graph(basis=((float("nan"), 0.0), (0.0, 1.0)))),
        (InvalidGraph, graph(edges=((0, 1, (0.5, 0)), (1, 0, (1, 0))))),  # was truncated to (0, 0)
        (InvalidGraph, graph(edges=((0, 1.0, (0, 0)), (1, 0, (1, 0))))),
        (InvalidGraph, graph(sign=("+", -1))),
        (InvalidGraph, graph(sign=(float("nan"), -1))),
        (InvalidGraph, graph(sign=(None, -1))),
        (InvalidGraph, graph(edges=None)),  # was a raw TypeError
        (InvalidGraph, graph(edges=((0, 1), (1, 0, (1, 0))))),  # no shift, was a raw ValueError
        (InvalidGraph, graph(sign=None)),  # was a raw TypeError
        (InvalidGraph, graph(n=0)),
        (InvalidGraph, graph(n="2")),
        (InvalidLattice, graph(basis=((1.0, 0.0), (0.0,)))),  # ragged
        (InvalidLattice, graph(basis=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))),
        (MismatchedVertexSet, layout("three_blocks_6x6.weave", (36, 3))),  # was a raw ValueError
        (MismatchedVertexSet, layout("entangled_pair.graph", (3, 2))),  # was a silent energy
        (InvalidParameter, lambda: Series("s", t, t[:-1])),  # fit_power_law raised a raw IndexError
        (InvalidParameter, lambda: Series("s", t, np.stack((t, t)))),  # a raw IndexError
        (InvalidParameter, lambda: Series("s", t.astype(str), t)),  # a raw ValueError
        (InvalidParameter, lambda: Series("s", t, [[1.0], [2.0, 3.0]] * 15)),  # a raw ValueError
        (InvalidParameter, lambda: FlowParams(dt_min=0.0)),
        (InvalidParameter, lambda: FlowParams(t_max=float("inf"))),
        (InvalidParameter, lambda: FlowParams(grad_tol=-1.0)),
        (InvalidParameter, lambda: FlowParams(record_stride=0)),
        (InvalidParameter, lambda: FlowParams(record_stride=True)),  # was a stride of 1
        (InvalidParameter, lambda: FlowParams(t_max=True)),  # was a horizon of 1
        (InvalidParameter, lambda: FlowParams(grad_tol=True)),
        (InvalidParameter, lambda: FlowParams(dt_max=True)),
        (InvalidParameter, lambda: FlowParams(t_max=10**400)),  # a raw OverflowError
        (InvalidParameter, lambda: FlowParams(grad_tol=10**400)),  # a raw OverflowError
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=0.0)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=float("nan"))),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=float("inf"))),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale="1")),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=True)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), -1)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 1.5)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), "3")),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), True)),
        # NaN heights and an overflow warning, then InvalidInitial from integrate
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=1e308)),
        (InvalidParameter, lambda: random_initial_configuration(load_system("entangled_pair.graph"), 0, gap_scale=10**400)),
        # at this seed the 16 heights overflow when shifted to a zero barycenter
        (InvalidParameter, lambda: random_initial_configuration(load_system("checker_4x4.weave"), 7, gap_scale=5e307)),
    ]
    for expected, build in cases:
        with pytest.raises(expected) as err:
            build()
        assert isinstance(err.value, TangleflowError)
        assert isinstance(err.value, ValueError)


@pytest.mark.parametrize(
    "function, design, message",
    [
        (lambda system: energy_entangled(system, None), "split_2x2.weave", "an entangled-graph"),
        (lambda system: energy_weave(system, None), "entangled_pair.graph", "a weave"),
        (weave_spectrum, "entangled_pair.graph", "a weave"),
        (commutation_check, "entangled_pair.graph", "a weave"),
        (classify_entangled_graph, "split_2x2.weave", "an entangled-graph"),
        (minimal_weaved_components, "entangled_pair.graph", "a weave"),
        (_thread_classes, "entangled_pair.graph", "a weave"),
        (serialize_design, None, None),
        (design_to_system, None, None),
    ],
    ids=[
        "energy_entangled", "energy_weave", "weave_spectrum", "commutation_check", "classify_entangled_graph",
        "minimal_weaved_components", "_thread_classes", "serialize_design", "design_to_system",
    ],
)
def test_kind_mismatches_are_tangleflow_errors(function, design, message):
    """A system of the other kind, or an object that is no design, raises
    WrongKind, both TangleflowError and TypeError, with its message kept."""
    if design is None:
        argument, expected = "kind weave", "^not a design: 'kind weave'$"
    else:
        argument = load_system(design)
        expected = rf"^expected {message} system, got kind='{argument.kind}'$"
    with pytest.raises(WrongKind, match=expected) as err:
        function(argument)
    assert isinstance(err.value, TangleflowError)
    assert isinstance(err.value, TypeError)


def test_weave_thread_structure():
    system = load_system("checker_4x4.weave")
    # blue thread i visits v_{i,0..3}; red thread j visits v_{0..3,j}
    assert system.blue_threads[0] == (0, 1, 2, 3)
    assert system.blue_threads[2] == (8, 9, 10, 11)
    assert system.red_threads[1] == (1, 5, 9, 13)
    assert len(system.blue_threads) == 4 and len(system.red_threads) == 4


def test_weave_assembly_matches_loop_reference():
    """The array-built weave structure equals a per-vertex loop construction
    exactly (all arithmetic is integer-valued or identical per entry), is
    built only on first read, and does not depend on the order of reads."""
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 5)] + [
        tuple(int(k) for k in rng.integers(1, 8, size=2)) for _ in range(15)
    ]
    lazy = (
        "blue_threads", "red_threads", "edges", "_height_edges", "blue_laplacian", "red_laplacian",
        "laplacian", "planar_x", "planar_energy", "_edge_arrays",
    )
    for nb, nr in shapes:
        sign = tuple(tuple(int(s) for s in rng.choice([-1, 1], size=nr)) for _ in range(nb))
        spacing = float(rng.choice([1.0, 0.7, 2.5]))
        design = WeaveDesign(n_blue=nb, n_red=nr, sign=sign, spacing=spacing)
        n = nb * nr
        laplacians = {"blue": np.zeros((n, n)), "red": np.zeros((n, n))}
        height_edges = {"blue": [], "red": []}
        edges = []
        grid = np.zeros((n, 2))
        for i in range(nb):
            for j in range(nr):
                v = i * nr + j
                for family, w in (("blue", i * nr + (j + 1) % nr), ("red", (i + 1) % nb * nr + j)):
                    if w != v:
                        height_edges[family].append((min(v, w), max(v, w)))
                        L = laplacians[family]
                        L[v, w] += 1.0
                        L[w, v] += 1.0
                        L[v, v] -= 1.0
                        L[w, w] -= 1.0
                edges.append((v, i * nr + (j + 1) % nr, (1, 0) if j == nr - 1 else (0, 0)))
                edges.append((v, (i + 1) % nb * nr + j, (0, 1) if i == nb - 1 else (0, 0)))
                grid[v] = ((j - (nr - 1) / 2) * spacing, (i - (nb - 1) / 2) * spacing)
        blue_threads = tuple(tuple(i * nr + j for j in range(nr)) for i in range(nb))
        red_threads = tuple(tuple(i * nr + j for i in range(nb)) for j in range(nr))
        period = np.array([nr * spacing, nb * spacing])
        energy = 0.0
        for u, v, shift in edges:
            d = grid[v] + np.array(shift) * period - grid[u]
            energy += float(d @ d)

        # the second pass reads the edge arrays (planar_term's geometry)
        # before planar_x and laplacian before the family Laplacians
        for order in (lazy, lazy[::-1]):
            system = build_weave_system(design)
            assert set(vars(system)) == {"design", "sign", "_grid", "n_vertices", "lattice_basis"}
            first = {name: getattr(system, name) for name in order}
            assert all(getattr(system, name) is value for name, value in first.items())
            assert all(not a.flags.writeable for a in (
                system.blue_laplacian, system.red_laplacian, system.laplacian,
                system.planar_x, *system._edge_arrays, *system._height_edges,
            ))
            # loop-free and sorted, with a two-thread cycle's edge listed twice
            for family, got in zip(("blue", "red"), system._height_edges):
                expected = np.array(sorted(height_edges[family]), dtype=int).reshape(-1, 2).T
                assert got.shape == expected.shape and np.array_equal(got, expected)
                built = _laplacian(*got, n)  # float64 also with no edges, as in a 1 x 1 weave
                assert built.dtype == np.float64 and np.array_equal(built, laplacians[family])
            assert all(cycle.dtype == np.float64 for cycle in system._thread_cycles)
            assert np.array_equal(system.blue_laplacian, laplacians["blue"])
            assert np.array_equal(system.red_laplacian, laplacians["red"])
            assert np.array_equal(system.laplacian, laplacians["blue"] + laplacians["red"])
            assert system.blue_threads == blue_threads
            assert system.red_threads == red_threads
            assert system.edges == tuple(edges)
            assert np.array_equal(system.planar_x, grid)
            assert system.planar_energy == pytest.approx(energy, rel=1e-12)
            assert system.planar_term(grid) == system.planar_energy
            assert np.array_equal(system.sign, np.array(sign).reshape(n))


def stacked_blocks_sign(m):
    """Signs of an m x m weave of 4x4 checkerboard blocks on the diagonal,
    each strictly above the ones after it: untangled, one tangle component
    per block."""
    return tuple(
        tuple(
            (1 if (i + j) % 2 == 0 else -1) if i // 4 == j // 4 else (1 if i < j else -1)
            for j in range(m)
        )
        for i in range(m)
    )


def test_classifying_a_large_weave_builds_no_dense_matrix(tmp_path):
    """Classifying a 64x64 weave (n = 4096) reads only its signs: the traced
    peak stays far below one n x n float matrix (134 MB).  The decomposition
    and the CLI run each peak near 1 MB."""
    path = tmp_path / "stacked_64x64.weave"
    path.write_text(serialize_design(WeaveDesign(n_blue=64, n_red=64, sign=stacked_blocks_sign(64))))
    out = io.StringIO()
    tracemalloc.start()
    try:
        system = design_to_system(load_design(path))
        assert tangle_decomposition(system).k == 16
        del system
        with contextlib.redirect_stdout(out):
            assert main(["classify", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue().startswith("untangled, K=16: W1={b1,b2,b3,b4|r1,r2,r3,r4}, ")
    assert peak < 16e6


def test_decomposing_a_large_weave_builds_no_cubic_temporary():
    """The tangle decomposition of a 256x256 stacked-block weave compares
    blue rows through matrix products, not (n_blue, n_blue, n_red)
    temporaries: its traced peak stays near 3 MB, where three such boolean
    arrays alone would take 50 MB."""
    system = build_weave_system(WeaveDesign(n_blue=256, n_red=256, sign=stacked_blocks_sign(256)))
    tracemalloc.start()
    try:
        decomposition = tangle_decomposition(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomposition.k == 64
    assert decomposition.components[0].blue == (1, 2, 3, 4)
    assert peak < 8e6


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


@pytest.mark.parametrize("scale", [1e5, 1e6, 1e7, 1e8, 1e10])
def test_harmonic_layout_check_is_scale_free(scale):
    """The layout residual is checked relative to the shift scale, so the
    honeycomb builds at any lattice scale, with the scaled unit layout."""
    unit = load_system("honeycomb.graph")
    basis = tuple(tuple(scale * c for c in row) for row in unit.graph.lattice_basis)
    graph = PeriodicQuotientGraph(n_vertices=unit.n_vertices, edges=unit.graph.edges, lattice_basis=basis)
    scaled = build_entangled_system(graph, tuple(int(s) for s in unit.sign))
    expected = scale * unit.planar_x
    assert np.max(np.abs(scaled.planar_x - expected)) <= 1e-12 * np.max(np.abs(expected))


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
    # an infinite height is a violation at its vertex, whatever the sign of
    # its gap, and raises no numpy warning on the way (inf - inf)
    inf = float("inf")
    for zb, zr in (((inf, -1.0), (-1.0, 1.0)), ((inf, -1.0), (inf, 1.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SignViolation) as err:
                make_configuration(system, zb, zr)
        assert err.value.vertex == 0
    # only later vertices are wrong: the first offending one is reported,
    # whether its gap has the wrong sign, is zero or is NaN
    weave = load_system("checker_4x4.weave")
    good = random_initial_configuration(weave, seed=5)
    for bad in (-1.0, 0.0, float("nan")):
        zb, zr = np.array(good.z_blue), np.array(good.z_red)
        zb[[9, 13]] = zr[[9, 13]] + bad * weave.sign[[9, 13]]
        zb[14] = zr[14] - weave.sign[14]
        with pytest.raises(SignViolation) as err:
            make_configuration(weave, zb, zr)
        assert err.value.vertex == 9


@pytest.mark.parametrize(
    "z_blue,error",
    [
        (("1.0", "x"), NonFiniteHeights),  # text
        ((1.0 + 2j, -1.0), NonFiniteHeights),  # complex entries
        (np.array([1.0 + 0j, -1.0]), NonFiniteHeights),  # a complex array, not cast to its real part
        (((1.0, 2.0), (3.0,)), MismatchedVertexSet),  # ragged
        ((1.0, (2.0, 3.0)), MismatchedVertexSet),  # ragged, one entry a sequence
        ((object(), 1.0), NonFiniteHeights),  # an object float() cannot convert
        ((1.0, -1.0, 1.0), MismatchedVertexSet),  # three heights for two vertices
    ],
)
def test_make_configuration_rejects_heights_that_are_not_a_real_vector(z_blue, error):
    """Heights that are not one real number per vertex raise the library's
    error, never numpy's, and no numpy warning."""
    system = build_entangled_system(pair_graph(), (1, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            make_configuration(system, z_blue, (-1.0, 1.0))
        with pytest.raises(error):
            make_configuration(system, (1.0, -1.0), z_blue)


@pytest.mark.parametrize(
    "field, value",
    [
        ("x", "a"),  # text planar coordinates
        ("z_blue", ("1.0", "x")),  # text heights
        ("z_blue", ((1.0, 2.0), (3.0,))),  # ragged heights
        ("z_red", (1.0, (2.0, 3.0))),  # ragged, one entry a sequence
        ("x", [[1j, 0.0], [0.0, 1.0]]),  # complex planar coordinates
        ("z_blue", (object(), 1.0)),  # an entry that is no number
        ("x", None),  # no array at all
        ("z_blue", ["1.5", "2"]),  # text that would parse as numbers
        ("z_blue", np.array([1 + 1j, -1])),  # a complex array, not cast to its real part
    ],
    ids=[
        "text x", "text z_blue", "ragged z_blue", "ragged z_red", "complex x", "object z_blue", "None x",
        "numeric text z_blue", "complex array z_blue",
    ],
)
def test_configuration_rejects_values_that_are_not_an_array(field, value):
    """A `Configuration` built directly from text, complex, ragged or
    non-numeric values, or from None, raises MismatchedVertexSet, still a
    ValueError, not numpy's raw ValueError or TypeError, and no numpy
    warning; None no longer becomes a 0-d NaN array, and text or complex
    values are rejected before any conversion, as `make_configuration`
    rejects them."""
    fields = dict(x=np.zeros((2, 2)), z_blue=(1.0, -1.0), z_red=(-1.0, 1.0))
    fields[field] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MismatchedVertexSet, match="per-vertex values are not an array of numbers"):
            Configuration(**fields)
    assert issubclass(MismatchedVertexSet, ValueError)


def test_make_configuration_converts_ints_beyond_64_bits():
    system = build_entangled_system(pair_graph(), (1, -1))
    config = make_configuration(system, (2**70, -1), (-1.0, 1.0))
    assert config.z_blue.tolist() == [2.0**70, -1.0]


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
