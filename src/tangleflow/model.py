"""Core model: periodic quotient graphs, weaves, and 3D configurations.

A system couples a combinatorial object (a quotient graph with lattice-shift
edges, or a two-family weave) with per-vertex crossing signs and the derived
numerical structure: Laplacian matrices, harmonic planar coordinates, and the
constant planar energy.  Configurations assign the two height functions.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSize,
    DisconnectedGraph,
    InvalidGraph,
    InvalidLattice,
    InvalidParameter,
    InvalidWeave,
    MismatchedVertexSet,
    SignViolation,
    SingularSystem,
    ZeroSignEntry,
)

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
    return _freeze(np.array(values, dtype=dtype))


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

    def _finalize_geometry(self, u_idx, v_idx, counts):
        """Store the edge arrays (endpoints u_idx -> v_idx, lattice-period
        counts per edge) with their planar shift vectors, and the constant
        term of the layout equation.  Requires self.lattice_basis.
        """
        B = np.asarray(self.lattice_basis, dtype=float)
        shifts = counts[:, :1] * B[0] + counts[:, 1:] * B[1]
        self._edge_u = _freeze(u_idx)
        self._edge_v = _freeze(v_idx)
        self._edge_shift = _freeze(shifts)
        # net shift flux per vertex: the constant term of the layout equation
        rhs = np.zeros((self.n_vertices, 2))
        np.add.at(rhs, u_idx, shifts)
        np.add.at(rhs, v_idx, -shifts)
        self._planar_rhs = _freeze(rhs)

    def planar_term(self, x: np.ndarray) -> float:
        """Sum over edges of |x(v) + shift - x(u)|^2."""
        if self._edge_u.size == 0:
            return 0.0
        d = x[self._edge_v] + self._edge_shift - x[self._edge_u]
        return float(np.sum(d * d))

    def _edge_tension(self, x: np.ndarray) -> np.ndarray:
        """Net pull of the edges on each vertex of the layout x: the sum of
        x(v) + shift - x(u) over its out-edges minus over its in-edges (half
        the negative gradient of `planar_term`)."""
        tension = x[self._edge_v] + self._edge_shift - x[self._edge_u]
        out = np.zeros_like(x)
        np.add.at(out, self._edge_u, tension)
        np.add.at(out, self._edge_v, -tension)
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
        # a shifted loop stretches in-plane but not in height
        self.laplacian = _freeze(_laplacian(table[:, 0], table[:, 1], self.n_vertices))
        self.blue_laplacian = self.red_laplacian = self.laplacian
        self._finalize_geometry(table[:, 0], table[:, 1], table[:, 2:])
        self.planar_x = _freeze(_solve_harmonic(self))
        self.planar_energy = self.planar_term(self.planar_x)


class WeaveSystem(_SystemBase):
    kind = "weave"

    def __init__(self, design: WeaveDesign):
        self.design = design
        nb, nr = design.n_blue, design.n_red
        self.n_vertices = n = nb * nr
        self.sign = _frozen_array(design.sign, dtype=int).reshape(n)
        self._grid = grid = _freeze(np.arange(n).reshape(nb, nr))  # vertex i * nr + j: blue i over red j
        self.blue_threads = tuple(map(tuple, grid.tolist()))
        self.red_threads = tuple(map(tuple, grid.T.tolist()))
        self.blue_laplacian = _freeze(_thread_laplacian(grid, n))
        self.red_laplacian = _freeze(_thread_laplacian(grid.T, n))
        self.laplacian = _freeze(self.blue_laplacian + self.red_laplacian)

        s = design.spacing
        self.lattice_basis = ((nr * s, 0.0), (0.0, nb * s))
        # per vertex, in vertex order: the edge to its right neighbor, wrapping
        # one period in x, then the edge to its lower neighbor, wrapping in y
        i, j = np.divmod(np.arange(n), nr)
        u_idx = np.repeat(np.arange(n), 2)
        v_idx = np.stack((i * nr + (j + 1) % nr, (i + 1) % nb * nr + j), axis=1).reshape(-1)
        counts = np.zeros((2 * n, 2), dtype=int)
        counts[0::2, 0] = j == nr - 1
        counts[1::2, 1] = i == nb - 1
        self.edges = tuple(zip(u_idx.tolist(), v_idx.tolist(), map(tuple, counts.tolist())))
        self._finalize_geometry(u_idx, v_idx, counts)
        self.planar_x = _freeze(np.stack(((j - (nr - 1) / 2) * s, (i - (nb - 1) / 2) * s), axis=1))
        self.planar_energy = self.planar_term(self.planar_x)

    def _component_vertices(self, component):
        """The vertex indices of a tangle component's blue threads and of its
        red threads, thread by thread in the component's order."""
        blue = self._grid[[i - 1 for i in component.blue]].ravel()
        red = self._grid.T[[j - 1 for j in component.red]].ravel()
        return blue, red


def _laplacian(u, v, n: int) -> np.ndarray:
    """Adjacency-minus-degree matrix of the multigraph with edges u[e]-v[e];
    loops (u[e] == v[e]) are dropped."""
    keep = u != v
    u, v = u[keep], v[keep]
    L = np.zeros((n, n))
    np.add.at(L, (u, v), 1.0)
    np.add.at(L, (v, u), 1.0)
    np.add.at(L, (u, u), -1.0)
    np.add.at(L, (v, v), -1.0)
    return L


def _thread_laplacian(threads: np.ndarray, n: int) -> np.ndarray:
    """Adjacency-minus-degree matrix of the disjoint thread cycles, one per
    row of vertex indices (a single crossing has no in-thread neighbor)."""
    return _laplacian(threads.reshape(-1), np.roll(threads, -1, axis=1).reshape(-1), n)


def _solve_harmonic(system: _SystemBase) -> np.ndarray:
    """Planar layout where every vertex is the shift-corrected average of its
    neighbors, with the barycenter pinned at the origin."""
    n = system.n_vertices
    M = np.array(system.laplacian)
    b = -np.array(system._planar_rhs)
    # replace the redundant last equation (rows of L sum to zero) with the pin
    M[n - 1, :] = 1.0
    b[n - 1] = 0.0
    try:
        x = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"harmonic layout system is singular: {exc}") from None
    x = x - x.mean(axis=0)
    # verify the layout equation on the original system (NaN fails too)
    resid = float(np.max(np.abs(system._edge_tension(x))))
    if not resid <= 1e-10:
        raise SingularSystem(f"harmonic layout residual {resid:.3e} exceeds 1e-10")
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
    basis = np.asarray(graph.lattice_basis, dtype=float)
    if basis.shape != (2, 2):
        raise InvalidLattice(f"lattice basis must be two 2-vectors, got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise InvalidLattice("lattice basis entries must be finite")
    det = basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]
    scale = max(1.0, float(np.max(np.abs(basis))) ** 2)
    if abs(det) <= 1e-12 * scale:
        raise InvalidLattice("lattice basis vectors are linearly dependent")
    for u, v, shift in graph.edges:
        if not all(isinstance(w, (int, np.integer)) and 0 <= w < n for w in (u, v)):
            raise InvalidGraph(f"edge ({u}, {v}) needs integer endpoints in 0..{n - 1}")
        if len(shift) != 2 or not all(isinstance(s, (int, np.integer)) for s in shift):
            raise InvalidGraph(f"edge ({u}, {v}) shift must be two integers, got {shift!r}")
        if u == v and shift[0] == 0 and shift[1] == 0:
            raise InvalidGraph(
                f"vertex {u} has a self-loop with zero shift; such an edge "
                "collapses to a point in every periodic realization"
            )
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
        values = list(sign)
        if len(values) != n:
            raise MismatchedVertexSet(
                f"crossing sign list has {len(values)} entries for {n} vertices"
            )
    for v, value in enumerate(values):
        if value not in (1, -1):
            raise InvalidGraph(f"crossing sign at vertex {v} must be +1 or -1, got {value!r}")
    return np.array(values, dtype=int)


def build_entangled_system(graph: PeriodicQuotientGraph, sign) -> EntangledSystem:
    """Validate and assemble a quotient-graph system with crossing signs."""
    _validate_graph(graph)
    return EntangledSystem(graph, _normalize_sign(sign, graph.n_vertices))


def build_weave_system(design: WeaveDesign) -> WeaveSystem:
    """Validate and assemble a weave system from its sign matrix."""
    nb, nr = design.n_blue, design.n_red
    if not isinstance(nb, int) or not isinstance(nr, int) or nb < 1 or nr < 1:
        raise DegenerateSize(f"thread counts must be positive integers, got {nb}x{nr}")
    if len(design.sign) != nb:
        raise InvalidWeave(f"sign matrix has {len(design.sign)} rows for {nb} blue threads")
    for i, row in enumerate(design.sign):
        if len(row) != nr:
            raise InvalidWeave(f"sign row {i} has {len(row)} entries for {nr} red threads")
        for j, value in enumerate(row):
            if value == 0:
                raise ZeroSignEntry(f"sign entry ({i}, {j}) is zero")
            if value not in (1, -1):
                raise InvalidWeave(f"sign entry ({i}, {j}) must be +1 or -1, got {value!r}")
    if not (isinstance(design.spacing, (int, float)) and 0 < design.spacing < np.inf):
        raise InvalidWeave(f"spacing must be positive and finite, got {design.spacing!r}")
    return WeaveSystem(design)


def harmonic_planar_coordinates(system) -> np.ndarray:
    """The unique periodic planar layout with zero barycenter (precomputed at
    build time; weaves use their regular grid of line intersections)."""
    return system.planar_x


def make_configuration(system, z_blue, z_red) -> Configuration:
    """Pair the system's planar layout with caller-supplied heights, checking
    sign consistency."""
    zb = np.asarray(z_blue, dtype=float)
    zr = np.asarray(z_red, dtype=float)
    n = system.n_vertices
    if zb.shape != (n,) or zr.shape != (n,):
        raise MismatchedVertexSet(
            f"height arrays must have shape ({n},), got {zb.shape} and {zr.shape}"
        )
    gaps = zb - zr
    for v in range(n):
        if gaps[v] == 0.0 or np.sign(gaps[v]) != system.sign[v]:
            raise SignViolation(v)
    return Configuration(x=system.planar_x, z_blue=zb, z_red=zr)


def random_initial_configuration(system, seed: int, gap_scale: float = 1.0) -> Configuration:
    """Seeded random heights respecting the crossing signs.

    Each copy starts at signed distance between gap_scale and 2*gap_scale from
    the plane, so every gap is at least 2*gap_scale wide; the global height
    barycenter is shifted to zero.  The seed must be a non-negative integer.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed!r}")
    if not 0 < gap_scale < np.inf:  # also rejects NaN
        raise InvalidParameter(f"gap_scale must be positive and finite, got {gap_scale!r}")
    rng = np.random.default_rng(seed)
    n = system.n_vertices
    sign = system.sign.astype(float)
    zb = sign * (gap_scale + rng.uniform(0.0, gap_scale, n))
    zr = -sign * (gap_scale + rng.uniform(0.0, gap_scale, n))
    shift = float(np.sum(zb + zr)) / (2 * n)
    zb -= shift
    zr -= shift
    return Configuration(x=system.planar_x, z_blue=zb, z_red=zr)
