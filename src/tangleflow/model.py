"""Core model: periodic quotient graphs, weaves, and 3D configurations.

A system couples a combinatorial object (a quotient graph with lattice-shift
edges, or a two-family weave) with per-vertex crossing signs and the derived
numerical structure: the height edges of each family, the Laplacian matrices
built from them, harmonic planar coordinates, and the constant planar energy.
Configurations assign the two height functions.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Real

import numpy as np

from .errors import (
    DegenerateSize,
    DisconnectedGraph,
    InvalidGraph,
    InvalidLattice,
    InvalidParameter,
    InvalidWeave,
    MismatchedVertexSet,
    NonFiniteHeights,
    SignViolation,
    SingularSystem,
    ZeroSignEntry,
)
from .topology import tangle_decomposition

__all__ = [
    "PeriodicQuotientGraph",
    "GraphDesign",
    "WeaveDesign",
    "EntangledSystem",
    "WeaveSystem",
    "Configuration",
    "build_entangled_system",
    "build_weave_system",
    "harmonic_planar_coordinates",
    "make_configuration",
    "random_initial_configuration",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A frozen copy of values as an array of dtype; entries that are not
    real numbers (text, complex, None), nested sequences of unequal lengths
    and a single value raise MismatchedVertexSet."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "biufO":  # complex, text, dates: never cast
            raise ValueError(f"got {arr.dtype} entries")
        arr = np.array(arr, dtype=dtype)
        if arr.ndim == 0:
            raise ValueError(f"got the single value {values!r}")
    except (TypeError, ValueError) as exc:
        raise MismatchedVertexSet(f"per-vertex values are not an array of numbers: {exc}") from None
    return _freeze(arr)


def _finite(value) -> bool:
    """Whether the real number value is finite as a float; an int too large
    for one is not.  It converts as float() does, so no numpy scalar warns."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Make a freshly built array read-only in place, without copying it."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PeriodicQuotientGraph:
    """Finite quotient of a periodic plane graph.

    edges: tuple of (u, v, (sx, sy)) — a directed representative per
    undirected edge; the shift counts how many lattice periods the edge
    crosses in each basis direction.
    """

    n_vertices: int
    edges: tuple
    lattice_basis: tuple


@dataclass(frozen=True)
class GraphDesign:
    """Serializable pairing of a quotient graph with its crossing signs."""

    graph: PeriodicQuotientGraph
    sign: tuple


@dataclass(frozen=True)
class WeaveDesign:
    """Two thread families crossing once per period, with a sign matrix.

    sign[i][j] = +1 when blue thread i passes over red thread j.
    """

    n_blue: int
    n_red: int
    sign: tuple
    spacing: float = 1.0


@dataclass(frozen=True)
class Configuration:
    """One 3D realization: planar coordinates plus the two height copies.

    Arrays are copied on construction and frozen; configurations are safe to
    share between trajectories.
    """

    x: np.ndarray
    z_blue: np.ndarray
    z_red: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x))
        object.__setattr__(self, "z_blue", _frozen_array(self.z_blue))
        object.__setattr__(self, "z_red", _frozen_array(self.z_red))


class _SystemBase:
    """Shared numerical plumbing for both system kinds."""

    kind: str
    n_vertices: int
    edges: tuple
    lattice_basis: tuple
    sign: np.ndarray
    laplacian: np.ndarray
    blue_laplacian: np.ndarray  # per height family; both are `laplacian` for graphs
    red_laplacian: np.ndarray
    _height_edges: tuple  # (blue, red) `_sorted_edges`, the source of the family Laplacians
    planar_x: np.ndarray
    planar_energy: float
    _edge_arrays: tuple  # (u, v, shift): edge endpoints u -> v and planar shift vectors
    _components: tuple  # tangle components top to bottom, as frozen (blue, red) vertex indices

    def _frozen_edge_arrays(self, u_idx, v_idx, counts) -> tuple:
        """The edge endpoint arrays u_idx -> v_idx with the planar shift
        vector of each edge's lattice-period counts, all frozen.  Requires
        self.lattice_basis."""
        B = np.asarray(self.lattice_basis, dtype=float)
        shifts = counts[:, :1] * B[0] + counts[:, 1:] * B[1]
        return _freeze(u_idx), _freeze(v_idx), _freeze(shifts)

    def planar_term(self, x: np.ndarray) -> float:
        """Sum over edges of |x(v) + shift - x(u)|^2."""
        u, v, shift = self._edge_arrays
        if u.size == 0:
            return 0.0
        d = x[v] + shift - x[u]
        return float(np.sum(d * d))

    def _edge_tension(self, x: np.ndarray) -> np.ndarray:
        """Net pull of the edges on each vertex of the layout x: the sum of
        x(v) + shift - x(u) over its out-edges minus over its in-edges (half
        the negative gradient of `planar_term`)."""
        u, v, shift = self._edge_arrays
        tension = x[v] + shift - x[u]
        out = np.zeros_like(x)
        np.add.at(out, u, tension)
        np.add.at(out, v, -tension)
        return out


class EntangledSystem(_SystemBase):
    kind = "entangled-graph"

    def __init__(self, graph: PeriodicQuotientGraph, sign: np.ndarray):
        self.graph = graph
        self.n_vertices = graph.n_vertices
        self.edges = graph.edges
        self.lattice_basis = graph.lattice_basis
        self.sign = _frozen_array(sign, dtype=int)
        table = np.array(
            [(u, v, sx, sy) for u, v, (sx, sy) in graph.edges], dtype=int
        ).reshape(-1, 4)
        edges = _sorted_edges(table[:, 0], table[:, 1])
        self._height_edges = (edges, edges)
        self.laplacian = _freeze(_laplacian(*edges, self.n_vertices))
        self.blue_laplacian = self.red_laplacian = self.laplacian
        self._edge_arrays = self._frozen_edge_arrays(table[:, 0], table[:, 1], table[:, 2:])
        self.planar_x = _freeze(_solve_harmonic(self))
        self.planar_energy = self.planar_term(self.planar_x)
        # both copies in one when both crossing signs occur, else the upper copy, then the lower
        every, none = _freeze(np.arange(self.n_vertices)), _freeze(np.arange(0))
        copies = ((every, none), (none, every))[:: int(self.sign[0])]  # blue on top where sign is +1
        self._components = ((every, every),) if self.sign.min() < self.sign.max() else copies


class WeaveSystem(_SystemBase):
    """Two thread families on a torus: blue thread i crosses red thread j at
    vertex i * n_red + j, blue over red where design.sign[i][j] is +1.

    Construction keeps only what `build_weave_system` validated: `design`,
    the flattened `sign`, the vertex grid `_grid`, `n_vertices` and
    `lattice_basis`.  The rest is built on first read and cached, frozen:
    `blue_threads`, `red_threads`, `edges`, `_height_edges`,
    `_thread_cycles`, `blue_laplacian`, `red_laplacian`, `laplacian`,
    `planar_x`, `planar_energy`, `_components` and the edge arrays behind
    `planar_term` and `_edge_tension`.  So classifying a weave, which reads
    only `sign`, builds no n x n matrix, and neither do its energy and
    commutator, which read only the edges, its flow, which reads the
    `_thread_cycles`, nor its spectrum, which reads only the thread counts.
    """

    kind = "weave"

    def __init__(self, design: WeaveDesign):
        self.design = design
        nb, nr = design.n_blue, design.n_red
        self.n_vertices = n = nb * nr
        self.sign = _frozen_array(design.sign, dtype=int).reshape(n)
        self._grid = _freeze(np.arange(n).reshape(nb, nr))  # vertex i * nr + j: blue i over red j
        s = design.spacing
        self.lattice_basis = ((nr * s, 0.0), (0.0, nb * s))

    @cached_property
    def blue_threads(self) -> tuple:
        return tuple(map(tuple, self._grid.tolist()))

    @cached_property
    def red_threads(self) -> tuple:
        return tuple(map(tuple, self._grid.T.tolist()))

    @cached_property
    def _height_edges(self) -> tuple:
        # each vertex's right edge runs along its blue thread, its lower edge
        # along its red thread
        u_idx, v_idx, _ = self._edge_index()
        return _sorted_edges(u_idx[0::2], v_idx[0::2]), _sorted_edges(u_idx[1::2], v_idx[1::2])

    @cached_property
    def _thread_cycles(self) -> tuple:
        """The Laplacians C_{n_blue} of red thread 0 and C_{n_red} of blue
        thread 0, read off the `_height_edges`.  Every thread of a family has
        the same cycle, so blue_laplacian is I (x) C_{n_red} and
        red_laplacian is C_{n_blue} (x) I."""
        nb, nr = self._grid.shape
        blue, red = self._height_edges
        red_thread = red[:, red[0] % nr == 0] // nr  # vertex i * nr is red thread 0's i-th
        blue_thread = blue[:, blue[1] < nr]  # vertex j < nr is blue thread 0's j-th
        return _freeze(_laplacian(*red_thread, nb)), _freeze(_laplacian(*blue_thread, nr))

    @cached_property
    def blue_laplacian(self) -> np.ndarray:
        return _freeze(_laplacian(*self._height_edges[0], self.n_vertices))

    @cached_property
    def red_laplacian(self) -> np.ndarray:
        return _freeze(_laplacian(*self._height_edges[1], self.n_vertices))

    @cached_property
    def laplacian(self) -> np.ndarray:
        return _freeze(self.blue_laplacian + self.red_laplacian)

    def _edge_index(self):
        """Per vertex, in vertex order: the edge to its right neighbor, wrapping
        one period in x, then the edge to its lower neighbor, wrapping in y;
        as endpoint arrays u -> v and lattice-period counts per edge."""
        nb, nr = self._grid.shape
        n = self.n_vertices
        i, j = np.divmod(np.arange(n), nr)
        u_idx = np.repeat(np.arange(n), 2)
        v_idx = np.stack((i * nr + (j + 1) % nr, (i + 1) % nb * nr + j), axis=1).reshape(-1)
        counts = np.zeros((2 * n, 2), dtype=int)
        counts[0::2, 0] = j == nr - 1
        counts[1::2, 1] = i == nb - 1
        return u_idx, v_idx, counts

    @cached_property
    def edges(self) -> tuple:
        u_idx, v_idx, counts = self._edge_index()
        return tuple(zip(u_idx.tolist(), v_idx.tolist(), map(tuple, counts.tolist())))

    @cached_property
    def _edge_arrays(self) -> tuple:
        return self._frozen_edge_arrays(*self._edge_index())

    @cached_property
    def planar_x(self) -> np.ndarray:
        nb, nr = self._grid.shape
        i, j = np.divmod(np.arange(self.n_vertices), nr)
        s = self.design.spacing
        return _freeze(np.stack(((j - (nr - 1) / 2) * s, (i - (nb - 1) / 2) * s), axis=1))

    @cached_property
    def planar_energy(self) -> float:
        return self.planar_term(self.planar_x)

    @cached_property
    def _components(self) -> tuple:
        # from one `tangle_decomposition`: each component's vertices, thread by thread in its order
        grid = self._grid
        return tuple(
            (_freeze(grid[[i - 1 for i in c.blue]].ravel()), _freeze(grid.T[[j - 1 for j in c.red]].ravel()))
            for c in tangle_decomposition(self).components
        )


def _sorted_edges(u, v) -> np.ndarray:
    """The edges u[e]-v[e] as a frozen, sorted 2 x m array of (min, max)
    endpoints, an edge of multiplicity k listed k times.  Loops are dropped:
    a shifted loop, or a one-crossing thread's, stretches nothing in height."""
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    order = np.lexsort((hi, lo))
    return _freeze(np.stack((lo[order], hi[order])))


def _laplacian_entries(u, v):
    """The Laplacian of the loop-free edges u[e]-v[e] as unsummed (row, column,
    weight) entries: +1 at (u, v) and (v, u), -1 at (u, u) and (v, v)."""
    rows = np.concatenate((u, v, u, v))
    cols = np.concatenate((v, u, u, v))
    weights = np.repeat(np.array([1, 1, -1, -1]), len(u))
    return rows, cols, weights


def _laplacian(u, v, n: int) -> np.ndarray:
    """Adjacency-minus-degree matrix of the loop-free multigraph with edges
    u[e]-v[e], its `_laplacian_entries` summed in one pass."""
    rows, cols, weights = _laplacian_entries(u, v)
    L = np.bincount(rows * n + cols, weights, minlength=n * n)
    return L.astype(float, copy=False).reshape(n, n)  # with no edges bincount gives int64


def _solve_harmonic(system: _SystemBase) -> np.ndarray:
    """Planar layout where every vertex is the shift-corrected average of its
    neighbors, with the barycenter pinned at the origin."""
    n = system.n_vertices
    M = np.array(system.laplacian)
    # the layout equation _edge_tension(x) = L x + _edge_tension(0) = 0
    b = -system._edge_tension(np.zeros((n, 2)))
    # replace the redundant last equation (rows of L sum to zero) with the pin
    M[n - 1, :] = 1.0
    b[n - 1] = 0.0
    try:
        x = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"harmonic layout system is singular: {exc}") from None
    x = x - x.mean(axis=0)
    # verify the layout equation on the original system (NaN fails too); the
    # layout scales with the edge shifts, and so does the residual's rounding
    bound = 1e-10 * float(np.max(np.abs(system._edge_arrays[2]), initial=0.0))
    resid = float(np.max(np.abs(system._edge_tension(x))))
    if not resid <= bound:
        raise SingularSystem(f"harmonic layout residual {resid:.3e} exceeds {bound:.3e}")
    return x


def _roots(n: int, pairs) -> list:
    """Union-find over 0..n-1 joined by the (a, b) pairs: the representative
    of each element, equal exactly for connected elements."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(a) for a in range(n)]


def _validate_graph(graph: PeriodicQuotientGraph):
    n = graph.n_vertices
    if not isinstance(n, int) or n < 1:
        raise InvalidGraph(f"vertex count must be a positive integer, got {n!r}")
    try:
        basis = np.asarray(graph.lattice_basis)
    except ValueError:  # ragged rows
        basis = np.asarray(None)
    if basis.dtype.kind not in "iuf":
        raise InvalidLattice(f"lattice basis entries must be numbers, got {graph.lattice_basis!r}")
    basis = basis.astype(float)
    if basis.shape != (2, 2):
        raise InvalidLattice(f"lattice basis must be two 2-vectors, got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise InvalidLattice("lattice basis entries must be finite")
    size = float(np.max(np.abs(basis)))
    if not math.isfinite(size * size):
        raise InvalidLattice(f"lattice basis entries of size {size!r} overflow their squares")
    det = basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]
    if abs(det) <= 1e-12 * max(1.0, size * size):
        raise InvalidLattice("lattice basis vectors are linearly dependent")
    try:
        triples = all(len(edge) == 3 for edge in graph.edges)
    except TypeError:  # no sequence of edges, or an edge without a length
        triples = False
    if not triples:
        raise InvalidGraph(f"edges must be (u, v, shift) triples, got {graph.edges!r}")
    periods = 0  # the most lattice periods any edge shift crosses
    for u, v, shift in graph.edges:
        if not all(isinstance(w, (int, np.integer)) and 0 <= w < n for w in (u, v)):
            raise InvalidGraph(f"edge ({u}, {v}) needs integer endpoints in 0..{n - 1}")
        if not (
            isinstance(shift, (tuple, list, np.ndarray))
            and len(shift) == 2
            and all(isinstance(s, (int, np.integer)) and -(2**63) < s < 2**63 for s in shift)
        ):
            raise InvalidGraph(f"edge ({u}, {v}) shift must be two 64-bit integers, got {shift!r}")
        periods = max(periods, abs(int(shift[0])), abs(int(shift[1])))
        if u == v and shift[0] == 0 and shift[1] == 0:
            raise InvalidGraph(
                f"vertex {u} has a self-loop with zero shift; such an edge "
                "collapses to a point in every periodic realization"
            )
    # the harmonic layout's planar energy is at most that of the layout with
    # every vertex at the origin, whose edge vectors are shorter than this
    reach = 3.0 * size * periods
    if not math.isfinite(reach * reach * len(graph.edges)):
        raise InvalidGraph(f"edges crossing {periods} lattice periods overflow the planar energy")
    # connectivity of the underlying multigraph (shifts ignored)
    if len(set(_roots(n, ((u, v) for u, v, _ in graph.edges)))) != 1:
        raise DisconnectedGraph("the quotient graph must be connected")


def _normalize_sign(sign, n: int) -> np.ndarray:
    if isinstance(sign, Mapping):
        if set(sign.keys()) != set(range(n)):
            raise MismatchedVertexSet(
                f"crossing map keys must be exactly 0..{n - 1}, got {sorted(sign.keys())}"
            )
        values = [sign[v] for v in range(n)]
    else:
        try:
            values = list(sign)
        except TypeError:  # neither a mapping nor a sequence
            raise InvalidGraph(f"crossing signs must be a sequence or a mapping, got {sign!r}") from None
        if len(values) != n:
            raise MismatchedVertexSet(
                f"crossing sign list has {len(values)} entries for {n} vertices"
            )
    for v, value in enumerate(values):
        if value not in (1, -1) or isinstance(value, (complex, np.complexfloating)):
            raise InvalidGraph(f"crossing sign at vertex {v} must be +1 or -1, got {value!r}")
    return np.array(values, dtype=int)


def build_entangled_system(graph: PeriodicQuotientGraph, sign) -> EntangledSystem:
    """Validate and assemble a quotient-graph system with crossing signs."""
    _validate_graph(graph)
    return EntangledSystem(graph, _normalize_sign(sign, graph.n_vertices))


def _all_signs(sign, n_red: int) -> bool:
    """Whether every row of sign has n_red entries and every entry is the
    int 1 or -1, by one set test of the entries and one of their types.  A
    row without a length or an unhashable entry fails, and so does any other
    entry equal to 1 or -1: True and 1.0, which the entry checks accept, and
    1 + 0j, which they reject but a set cannot tell from 1."""
    try:
        return (
            all(len(row) == n_red for row in sign) and set().union(*sign) <= {1, -1}
            and set(map(type, chain.from_iterable(sign))) <= {int}
        )
    except TypeError:
        return False


def build_weave_system(design: WeaveDesign) -> WeaveSystem:
    """Validate and assemble a weave system from its sign matrix."""
    nb, nr = design.n_blue, design.n_red
    if not all(isinstance(count, int) and not isinstance(count, bool) for count in (nb, nr)):
        raise InvalidWeave(f"thread counts must be integers, got {nb!r} and {nr!r}")
    if nb < 1 or nr < 1:
        raise DegenerateSize(f"thread counts must be positive integers, got {nb}x{nr}")
    if len(design.sign) != nb:
        raise InvalidWeave(f"sign matrix has {len(design.sign)} rows for {nb} blue threads")
    if not _all_signs(design.sign, nr):
        # find the first offending row or entry, in row-major order
        for i, row in enumerate(design.sign):
            if len(row) != nr:
                raise InvalidWeave(f"sign row {i} has {len(row)} entries for {nr} red threads")
            for j, value in enumerate(row):
                if value == 0:
                    raise ZeroSignEntry(f"sign entry ({i}, {j}) is zero")
                if value not in (1, -1) or isinstance(value, (complex, np.complexfloating)):
                    raise InvalidWeave(f"sign entry ({i}, {j}) must be +1 or -1, got {value!r}")
    # the planar energy sums 2 nb nr squared edge lengths spacing^2
    largest = math.sqrt(sys.float_info.max / (2 * nb * nr))
    if not (isinstance(design.spacing, (int, float)) and 0 < design.spacing <= largest):
        raise InvalidWeave(
            f"spacing must be positive and at most {largest:.6g} (a finite planar energy), got {design.spacing!r}"
        )
    return WeaveSystem(design)


def harmonic_planar_coordinates(system) -> np.ndarray:
    """The unique periodic planar layout with zero barycenter (solved at build
    time for graphs; weaves use their regular grid of line intersections,
    built on first read)."""
    return system.planar_x


def make_configuration(system, z_blue, z_red) -> Configuration:
    """Pair the system's planar layout with caller-supplied heights, checking
    sign consistency."""
    n = system.n_vertices
    try:
        zb, zr = np.asarray(z_blue), np.asarray(z_red)
    except ValueError:  # nested sequences of unequal lengths
        raise MismatchedVertexSet(f"height arrays must have shape ({n},), got a ragged sequence") from None
    if zb.shape != (n,) or zr.shape != (n,):
        raise MismatchedVertexSet(
            f"height arrays must have shape ({n},), got {zb.shape} and {zr.shape}"
        )
    message = f"heights must be real numbers, got {zb.dtype} and {zr.dtype} entries"
    if not {zb.dtype.kind, zr.dtype.kind} <= set("biufO"):  # complex, text, dates
        raise NonFiniteHeights(message)
    try:  # object entries, e.g. ints beyond 64 bits, convert one by one
        zb, zr = zb.astype(float), zr.astype(float)
    except (TypeError, ValueError):
        raise NonFiniteHeights(message) from None
    # a zero gap has no sign of +1 or -1, so it fails; a non-finite height leaves it 0
    gap = np.subtract(zb, zr, out=np.zeros(n), where=np.isfinite(zb) & np.isfinite(zr))
    wrong = np.flatnonzero(np.sign(gap) != system.sign)
    if wrong.size:
        raise SignViolation(int(wrong[0]))
    return Configuration(x=system.planar_x, z_blue=zb, z_red=zr)


def random_initial_configuration(system, seed: int, gap_scale: float = 1.0) -> Configuration:
    """Seeded random heights respecting the crossing signs.

    Each copy starts at signed distance between gap_scale and 2*gap_scale from
    the plane, so every gap is at least 2*gap_scale wide; the global height
    barycenter is shifted to zero.  The seed must be a non-negative integer,
    and a gap_scale so large that 2*gap_scale or the shifted heights
    overflow raises InvalidParameter.
    """
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed!r}")
    if not (isinstance(gap_scale, Real) and gap_scale > 0 and _finite(gap_scale)):  # also rejects NaN
        raise InvalidParameter(f"gap_scale must be positive and finite, got {gap_scale!r}")
    if not 2.0 * float(gap_scale) < math.inf:
        raise InvalidParameter(f"gap_scale {gap_scale!r} is too large: heights up to 2*gap_scale overflow")
    rng = np.random.default_rng(seed)
    n = system.n_vertices
    sign = system.sign.astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        zb = sign * (gap_scale + rng.uniform(0.0, gap_scale, n))
        zr = -sign * (gap_scale + rng.uniform(0.0, gap_scale, n))
        shift = float(np.sum(zb + zr)) / (2 * n)
        zb -= shift
        zr -= shift
    if not (np.isfinite(zb).all() and np.isfinite(zr).all()):
        raise InvalidParameter(f"gap_scale {gap_scale!r} is too large: the shifted heights overflow")
    return Configuration(x=system.planar_x, z_blue=zb, z_red=zr)
