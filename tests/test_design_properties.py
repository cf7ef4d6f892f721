"""Property tests on generated designs: the design text round-trips, the
tokenizer splits and locates tokens like the regex \\S+, a weave's
closed-form spectrum equals the dense eigensolve and its grid velocity
the dense one, a weave's sign matrix and a graph's sign list are accepted
or rejected exactly as the entry-by-entry checks decide, the
tangle decomposition partitions the threads with K == 1 exactly for
entangled weaves, every crossing agrees with the component order
`classify` prints, the flow ends with every two crossing components at
mean heights in that order, component weights count the crossings with
the other components, the flow keeps its invariants on small weaves
and graphs, and an RK4 step whose descent is certified does not raise the
energy."""
from __future__ import annotations

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    GRAPH_DESIGNS,
    WEAVE_DESIGNS,
    dense_velocity,
    kernel_velocity,
    load_system,
    random_graph_system,
)
from tangleflow import dynamics  # noqa: E402
from tangleflow.analysis import commutation_check, weave_spectrum  # noqa: E402
from tangleflow.cli import main  # noqa: E402
from tangleflow.designio import _syntax_error, _tokenize, parse_design, serialize_design  # noqa: E402
from tangleflow.errors import DesignSyntaxError, InvalidGraph, InvalidWeave, TangleflowError, ZeroSignEntry  # noqa: E402
from tangleflow.dynamics import FlowParams, integrate  # noqa: E402
from tangleflow.model import (  # noqa: E402
    Configuration,
    GraphDesign,
    PeriodicQuotientGraph,
    WeaveDesign,
    build_entangled_system,
    build_weave_system,
    random_initial_configuration,
)
from tangleflow.topology import (  # noqa: E402
    boundary_weight,
    is_entangled,
    tangle_decomposition,
)

SIGNS = st.sampled_from((1, -1))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sign_matrices(draw, max_threads=7):
    n_blue = draw(st.integers(1, max_threads))
    n_red = draw(st.integers(1, max_threads))
    return tuple(tuple(draw(SIGNS) for _ in range(n_red)) for _ in range(n_blue))


@st.composite
def weave_designs(draw):
    sign = draw(sign_matrices())
    spacing = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return WeaveDesign(n_blue=len(sign), n_red=len(sign[0]), sign=sign, spacing=spacing)


@st.composite
def graph_designs(draw, max_vertices=6):
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    shift = st.tuples(st.integers(-(2**63) + 1, 2**63 - 1), st.integers(-(2**63) + 1, 2**63 - 1))
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex, shift), max_size=8)))
    basis = ((draw(FINITE), draw(FINITE)), (draw(FINITE), draw(FINITE)))
    graph = PeriodicQuotientGraph(n_vertices=n, edges=edges, lattice_basis=basis)
    return GraphDesign(graph=graph, sign=tuple(draw(SIGNS) for _ in range(n)))


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(weave_designs(), graph_designs()))
def test_serialized_design_parses_back_to_itself(design):
    assert parse_design(serialize_design(design)) == design


@settings(max_examples=150, deadline=None, database=None)
@given(sign_matrices())
def test_decomposition_partitions_threads_and_k1_means_entangled(sign):
    n_blue, n_red = len(sign), len(sign[0])
    system = build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign))
    decomposition = tangle_decomposition(system)
    blue = [i for comp in decomposition.components for i in comp.blue]
    red = [j for comp in decomposition.components for j in comp.red]
    assert sorted(blue) == list(range(1, n_blue + 1))
    assert sorted(red) == list(range(1, n_red + 1))
    assert all(comp.blue or comp.red for comp in decomposition.components)
    assert is_entangled(system) == (decomposition.k == 1)


def printed_components(sign):
    """The components `tangleflow classify` prints for the weave, top to
    bottom, as (blue threads, red threads) sets, 1-indexed."""
    design = WeaveDesign(n_blue=len(sign), n_red=len(sign[0]), sign=sign)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.weave"
        path.write_text(serialize_design(design))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["classify", str(path)]) == 0
    components = []
    for blue, red in re.findall(r"W\d+=\{([^|]*)\|([^}]*)\}", out.getvalue()):
        components.append((
            {int(b[1:]) for b in blue.split(",") if b != "-"},
            {int(r[1:]) for r in red.split(",") if r != "-"},
        ))
    return components


# Whitespace inside a line (ASCII and Unicode), '#' and sign characters,
# plus any character that does not break a line
LINE_CHARS = st.one_of(
    st.sampled_from(" \t\x1f\xa0\u1680\u2003\u3000#+-"),
    st.characters(exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
)
WHITESPACE_RUNS = st.text(st.sampled_from(" \t\x1f\xa0\u2003\u3000"), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(LINE_CHARS, max_size=40))
def test_tokens_and_their_columns_are_the_regex_matches(line):
    content = line.split("#", 1)[0]
    matches = list(re.finditer(r"\S+", content))
    rows = _tokenize(line)
    assert [tokens for _, _, tokens in rows] == ([[m.group() for m in matches]] if matches else [])
    for index, match in enumerate(matches):
        error = _syntax_error(rows[0], index, "")
        assert (error.line, error.col) == (1, match.start() + 1)


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.sampled_from(("+", "-", "1", "-1", "*", "x")), min_size=1, max_size=12),
    st.data(),
)
def test_a_bad_sign_entry_is_reported_at_its_own_column(entries, data):
    separators = [data.draw(WHITESPACE_RUNS) for _ in entries]
    line = "sign" + "".join(sep + entry for sep, entry in zip(separators, entries))
    comment = data.draw(st.sampled_from(("", "#", " # * x")))
    text = f"kind weave\nthreads 1 {len(entries)}\nspacing 1\n{line}{comment}\n"
    bad = [m for m in re.finditer(r"\S+", line) if m.group() in ("*", "x")]
    if not bad:
        assert parse_design(text).sign == (tuple(1 if e in ("+", "1") else -1 for e in entries),)
        return
    with pytest.raises(DesignSyntaxError) as err:
        parse_design(text)
    assert (err.value.line, err.value.col) == (4, bad[0].start() + 1)


@settings(max_examples=150, deadline=None, database=None)
@given(sign_matrices(max_threads=8))
@example(((1,),))
@example(((1, -1),))
@example(((1,), (-1,)))
@example(((1,) * 8,) * 2)
def test_weave_spectrum_is_the_kronecker_sum_of_the_cycle_spectra(sign):
    system = build_weave_system(WeaveDesign(n_blue=len(sign), n_red=len(sign[0]), sign=sign))
    got = weave_spectrum(system)
    assert commutation_check(system) == 0.0
    assert "laplacian" not in vars(system)
    want = np.linalg.eigvalsh(-system.laplacian)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@settings(max_examples=150, deadline=None, database=None)
@given(sign_matrices(max_threads=8), st.integers(0, 2**16), st.floats(-2.0, 2.0))
@example(((1,),), 0, 0.0)
@example(((1, -1, 1),), 1, 1.5)
@example(((1,), (-1,), (1,)), 2, -1.5)
@example(((1, -1), (-1, 1)), 3, 0.0)
@example(((1,) * 8,) * 2, 4, 2.0)
@example(((1, -1),) * 8, 5, -2.0)
def test_weave_velocity_matches_the_dense_formula(sign, seed, log_scale):
    """The step kernel's velocity from the two thread cycles is within 4 ulp
    of each entry's term magnitudes of the dense 2 L z +- sign / d^2, from
    1x1 to 8x8, 1-thread families (loop dropped) and 2-thread families
    (double edge kept) included, and builds no family Laplacian."""
    system = build_weave_system(WeaveDesign(n_blue=len(sign), n_red=len(sign[0]), sign=sign))
    config = random_initial_configuration(system, seed=seed, gap_scale=10.0 ** log_scale)
    got = kernel_velocity(dynamics._StepKernel(system, config), np.concatenate((config.z_blue, config.z_red)))
    assert not {"blue_laplacian", "red_laplacian"} & set(vars(system))
    dense, magnitude = dense_velocity(system, config)
    assert np.all(np.abs(got - dense) <= 4 * np.finfo(float).eps * magnitude)


# entries a sign matrix may hold besides +1 and -1: equal to 1 or -1 and so
# accepted (True, 1.0, real numpy scalars), zero (False, 0.0, -0.0), equal to
# 1 or -1 but complex and so rejected, or neither
ODD_ENTRIES = st.sampled_from((
    True, 1.0, -1.0, np.int64(1), np.float64(-1.0), np.uint8(1), 1j,
    1 + 0j, -1 + 0j, np.complex128(1), np.complex128(-1),
    False, 0, 0.0, -0.0, np.int8(0),
    2, -2, 0.5, 2**70, float("nan"), float("inf"), "+", "-", "1", None, (1,), [1], np.float64(1.5),
))


@st.composite
def odd_sign_matrices(draw, max_threads=5):
    """Sign matrices with n_blue rows, mostly +1 and -1, some odd entries
    and some rows of the wrong length."""
    n_blue = draw(st.integers(1, max_threads))
    n_red = draw(st.integers(1, max_threads))
    entry = st.one_of(SIGNS, SIGNS, SIGNS, ODD_ENTRIES)
    rows = []
    for _ in range(n_blue):
        length = draw(st.sampled_from((n_red,) * 6 + (n_red - 1, n_red + 1)))
        rows.append(tuple(draw(entry) for _ in range(length)))
    return n_blue, n_red, tuple(rows)


def is_sign(value):
    """Whether value is a real number equal to 1 or -1."""
    return value in (1, -1) and not isinstance(value, (complex, np.complexfloating))


def loop_sign_checks(sign, n_red):
    """The reference: each row's length, then each entry, in row-major order."""
    for i, row in enumerate(sign):
        if len(row) != n_red:
            raise InvalidWeave(f"sign row {i} has {len(row)} entries for {n_red} red threads")
        for j, value in enumerate(row):
            if value == 0:
                raise ZeroSignEntry(f"sign entry ({i}, {j}) is zero")
            if not is_sign(value):
                raise InvalidWeave(f"sign entry ({i}, {j}) must be +1 or -1, got {value!r}")


def outcome(call):
    try:
        call()
    except TangleflowError as exc:
        return type(exc), str(exc)
    return "accepted"


@settings(max_examples=400, deadline=None, database=None)
@given(odd_sign_matrices())
@example((2, 2, ((1, -1), (False, 1))))
@example((2, 2, ((1, -1), (1, 0.0))))
@example((2, 2, (("+", -1), (1, 1))))
@example((2, 2, ((1, -1), (None, 1))))
@example((2, 2, ((1, float("nan")), (1, 1))))
@example((2, 2, ((1, -1), (1, 2))))
@example((2, 2, ((True, -1), (1, 1.0))))
@example((2, 2, ((1, -1, 1), (1, 1))))
@example((1, 1, ((1 + 0j,),)))
@example((1, 2, ((1, 1 + 0j),)))
@example((2, 2, ((1, -1), (np.complex128(1), 1))))
def test_sign_matrix_checks_match_the_entry_loop(case):
    """`build_weave_system` accepts or rejects every sign matrix as the
    entry-by-entry loop does, with the same error class and message, so
    naming the first offending row or entry in row-major order.  A complex
    entry equal to 1 or -1 is rejected, never a raw TypeError or cast."""
    n_blue, n_red, sign = case
    got = outcome(lambda: build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign)))
    assert got == outcome(lambda: loop_sign_checks(sign, n_red))


def ring_graph(n):
    """The quotient n-cycle: ring edges with one wrapping edge."""
    edges = tuple((k, (k + 1) % n, (1, 0) if k == n - 1 else (0, 0)) for k in range(n))
    return PeriodicQuotientGraph(n_vertices=n, edges=edges, lattice_basis=((1.0, 0.0), (0.0, 1.0)))


def loop_graph_sign_checks(sign):
    """The reference for a graph: each vertex's sign, in vertex order."""
    for v, value in enumerate(sign):
        if not is_sign(value):
            raise InvalidGraph(f"crossing sign at vertex {v} must be +1 or -1, got {value!r}")


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(SIGNS, SIGNS, ODD_ENTRIES), min_size=1, max_size=6))
@example([1 + 0j, -1])
@example([1, np.complex128(-1)])
@example([True, -1.0, np.int64(1)])
def test_graph_sign_checks_match_the_entry_loop(sign):
    """`build_entangled_system` accepts or rejects every crossing sign list
    as the vertex-by-vertex loop does, with the same error class and
    message; a complex sign equal to 1 or -1 is rejected."""
    got = outcome(lambda: build_entangled_system(ring_graph(len(sign)), sign))
    assert got == outcome(lambda: loop_graph_sign_checks(sign))


@settings(max_examples=100, deadline=None, database=None)
@given(sign_matrices())
def test_crossings_agree_with_the_printed_component_order(sign):
    """Wherever blue thread i crosses red thread j of another component,
    blue over red (+1) exactly when i's component is printed first (higher
    up)."""
    components = printed_components(sign)
    level_blue = {i: k for k, (blue, _) in enumerate(components) for i in blue}
    level_red = {j: k for k, (_, red) in enumerate(components) for j in red}
    assert sorted(level_blue) == list(range(1, len(sign) + 1))
    assert sorted(level_red) == list(range(1, len(sign[0]) + 1))
    for i, row in enumerate(sign, 1):
        for j, s in enumerate(row, 1):
            if level_blue[i] != level_red[j]:
                assert (s == 1) == (level_blue[i] < level_red[j]), (i, j)


@settings(max_examples=40, deadline=None, database=None)
@given(sign_matrices(max_threads=5))
def test_the_flow_stacks_crossing_components_in_the_printed_order(sign):
    """The abstract's height order, from the flow: at t = 1000 every two
    components that cross have mean heights in the order the decomposition
    lists them, top first.  Component k's mean height is its summed heights
    over its N_k = |B_k| n_red + |R_k| n_blue vertices."""
    n_blue, n_red = len(sign), len(sign[0])
    system = build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign))
    components = tangle_decomposition(system).components
    assume(len(components) >= 2)
    traj = integrate(system, random_initial_configuration(system, seed=1), FlowParams(t_max=1e3))
    sizes = [len(c.blue) * n_red + len(c.red) * n_blue for c in components]
    mean = traj.m_components[-1] / np.array(sizes)
    for a, upper in enumerate(components):
        for b in range(a + 1, len(components)):
            lower = components[b]
            if (upper.blue and lower.red) or (upper.red and lower.blue):
                assert mean[a] > mean[b], (a, b, mean)


@settings(max_examples=150, deadline=None, database=None)
@given(sign_matrices())
def test_component_weight_counts_its_crossings_with_the_rest(sign):
    """`TangleComponent.weight` of component k is its row sum of
    w_kl = |B_k| |R_l| + |R_k| |B_l| over the other components l, which is
    the number of crossings between k's threads and everyone else's."""
    n_blue, n_red = len(sign), len(sign[0])
    decomposition = tangle_decomposition(
        build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign))
    )
    components = decomposition.components
    for k, comp in enumerate(components):
        row_sum = sum(
            len(comp.blue) * len(other.red) + len(comp.red) * len(other.blue)
            for l, other in enumerate(components) if l != k
        )
        crossings = sum(
            (i in comp.blue) != (j in comp.red)
            for i in range(1, n_blue + 1) for j in range(1, n_red + 1)
        )
        assert comp.weight == row_sum == crossings
        assert boundary_weight(decomposition, k + 1) == comp.weight


def small_weaves():
    return sign_matrices(max_threads=4).map(
        lambda sign: build_weave_system(WeaveDesign(n_blue=len(sign), n_red=len(sign[0]), sign=sign))
    )


def small_graphs():
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random_graph_system(np.random.default_rng(seed), max_vertices=6)
    )


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(small_weaves(), small_graphs()), st.integers(0, 2**16))
def test_flow_keeps_its_invariants_on_generated_systems(system, seed):
    """At every recorded step the energy has not risen beyond the rounding
    cushion, the height sum holds, every crossing sign holds, and no gap is
    below the guard's floor."""
    config = random_initial_configuration(system, seed=seed)
    params = FlowParams(t_max=1.5, record_stride=1)
    samples = integrate(system, config, params).samples
    e0 = samples[0].energy
    m0 = float(np.sum(config.z_blue + config.z_red))
    for before, after in zip(samples, samples[1:]):
        assert after.energy <= before.energy + 1e-12 * abs(e0)
    for s in samples:
        assert abs(float(np.sum(s.config.z_blue + s.config.z_red)) - m0) <= 1e-8
        assert np.all(np.sign(s.config.z_blue - s.config.z_red) == system.sign)
        assert s.min_gap >= params.gap_safety / e0


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 200),
    st.floats(1e-300, 1e10),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=400),
)
@example(1, 1e-10, [1.0])
@example(200, 1.5e-154, [-1.0])
def test_the_speed_floor_never_skips_a_velocity_below_grad_tol(n, grad_tol, entries):
    """`integrate` leaves the sup norm of a certified RK4 end state
    unevaluated when v . v reaches `_speed_floor(2n, grad_tol)`.  That must
    never happen to a velocity of 2n entries whose sup norm is below
    grad_tol: one of the drawn entries scaled by the largest float below
    grad_tol, cycled to 2n entries, or every entry that float.  A floor
    that is a number also decides a velocity of sup norm 2 grad_tol."""
    floor = dynamics._speed_floor(2 * n, grad_tol)
    below = np.nextafter(grad_tol, 0.0)
    drawn = np.resize(np.array(entries) * below, 2 * n)
    for v in (drawn, np.full(2 * n, below)):
        assert np.max(np.abs(v)) < grad_tol
        assert not v.dot(v) >= floor
    if not math.isnan(floor):
        v = np.full(2 * n, 2.0 * grad_tol)
        assert v.dot(v) >= floor


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(GRAPH_DESIGNS + WEAVE_DESIGNS), st.integers(0, 2**16), st.floats(0.0, 1.0))
@example("chained_4x4.weave", 9, 1.0)
@example("honeycomb.graph", 0, 0.0)
def test_a_certified_rk4_step_does_not_raise_the_energy(name, seed, fraction):
    """Whenever `_end_state`'s certificate accepts an RK4 candidate (its
    energy left unevaluated), the energy at the candidate, evaluated apart,
    is at most the start's plus the kernel's cushion: on the 12 bundled
    designs, from random starts, with dt log-uniform from 1e-4 to twice
    the RK4 stability cap at the start, where steps overshoot."""
    system = load_system(name)
    config = random_initial_configuration(system, seed=seed)
    kernel = dynamics._StepKernel(system, config)
    # `integrate`'s cap: Gershgorin on 2 L plus the gap repulsion's 4 / gap^3
    cap = dynamics._STABILITY_MARGIN / (kernel.quad_rate + 4.0 / kernel.start[3] ** 3)
    dt = 1e-4 * (2.0 * cap / 1e-4) ** fraction
    with np.errstate(**dynamics._QUIET):
        end = dynamics._rk4_step(kernel, dt, kernel.start[1])
    if isinstance(end, str) or end[1] is not None:
        return
    n = system.n_vertices
    y_new = kernel.y_new.flat
    stepped = Configuration(x=config.x, z_blue=y_new[:n].copy(), z_red=y_new[n:].copy())
    assert dynamics._total_energy(system, stepped) <= dynamics._total_energy(system, config) + kernel.cushion
