"""Property tests on generated designs: the design text round-trips, and the
tangle decomposition partitions the threads with K == 1 exactly for
entangled weaves."""
from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tangleflow.designio import parse_design, serialize_design  # noqa: E402
from tangleflow.model import (  # noqa: E402
    GraphDesign,
    PeriodicQuotientGraph,
    WeaveDesign,
    build_weave_system,
)
from tangleflow.topology import is_entangled, tangle_decomposition  # noqa: E402

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
