"""Core model: periodic quotient graphs, weaves, and 3D configurations.

A system couples a combinatorial object (a quotient graph with lattice-shift
edges, or a two-family weave) with per-vertex crossing signs and the derived
numerical structure: Laplacian matrices, harmonic planar coordinates, and the
constant planar energy.  Configurations assign the two height functions.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSize,
    DisconnectedGraph,
    InvalidGraph,
    InvalidLattice,
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
    arr = np.array(values, dtype=dtype)
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

    def _finalize_geometry(self):
        """Precompute vectorized edge arrays, the harmonic layout, and the
        planar energy.  Requires self.edges / self.lattice_basis / laplacian.
        """
        B = np.asarray(self.lattice_basis, dtype=float)
        m = len(self.edges)
        u_idx = np.zeros(m, dtype=int)
        v_idx = np.zeros(m, dtype=int)
        shifts = np.zeros((m, 2), dtype=float)
        for e, (u, v, (sx, sy)) in enumerate(self.edges):
            u_idx[e] = u
            v_idx[e] = v
            shifts[e] = sx * B[0] + sy * B[1]
        self._edge_u = _frozen_array(u_idx, dtype=int)
        self._edge_v = _frozen_array(v_idx, dtype=int)
        self._edge_shift = _frozen_array(shifts)
        # net shift flux per vertex: the constant term of the layout equation
        rhs = np.zeros((self.n_vertices, 2))
        np.add.at(rhs, u_idx, shifts)
        np.add.at(rhs, v_idx, -shifts)
        self._planar_rhs = _frozen_array(rhs)

    def planar_term(self, x: np.ndarray) -> float:
        """Sum over edges of |x(v) + shift - x(u)|^2."""
        if len(self.edges) == 0:
            return 0.0
        d = x[self._edge_v] + self._edge_shift - x[self._edge_u]
        return float(np.sum(d * d))


class EntangledSystem(_SystemBase):
    kind = "entangled-graph"

    def __init__(self, graph: PeriodicQuotientGraph, sign: np.ndarray):
        self.graph = graph
        self.n_vertices = graph.n_vertices
        self.edges = graph.edges
        self.lattice_basis = graph.lattice_basis
        self.sign = _frozen_array(sign, dtype=int)
        L = np.zeros((self.n_vertices, self.n_vertices))
        for u, v, _shift in graph.edges:
            if u == v:
                continue  # a shifted loop stretches in-plane but not in height
            L[u, v] += 1.0
            L[v, u] += 1.0
            L[u, u] -= 1.0
            L[v, v] -= 1.0
        self.laplacian = _frozen_array(L)
        self.blue_laplacian = self.red_laplacian = self.laplacian
        self._finalize_geometry()
        self.planar_x = _frozen_array(_solve_harmonic(self))
        self.planar_energy = self.planar_term(self.planar_x)


class WeaveSystem(_SystemBase):
    kind = "weave"

    def __init__(self, design: WeaveDesign):
        self.design = design
        nb, nr = design.n_blue, design.n_red
        self.n_vertices = nb * nr
        self.sign = _frozen_array(
            [design.sign[i][j] for i in range(nb) for j in range(nr)], dtype=int
        )
        self.blue_threads = tuple(
            tuple(i * nr + j for j in range(nr)) for i in range(nb)
        )
        self.red_threads = tuple(
            tuple(i * nr + j for i in range(nb)) for j in range(nr)
        )
        self.blue_laplacian = _frozen_array(_thread_laplacian(self.blue_threads, self.n_vertices))
        self.red_laplacian = _frozen_array(_thread_laplacian(self.red_threads, self.n_vertices))
        self.laplacian = _frozen_array(self.blue_laplacian + self.red_laplacian)

        s = design.spacing
        self.lattice_basis = ((nr * s, 0.0), (0.0, nb * s))
        edges = []
        for i in range(nb):
            for j in range(nr):
                v = i * nr + j
                edges.append((v, i * nr + (j + 1) % nr, (1, 0) if j == nr - 1 else (0, 0)))
                edges.append((v, ((i + 1) % nb) * nr + j, (0, 1) if i == nb - 1 else (0, 0)))
        self.edges = tuple(edges)
        self._finalize_geometry()
        grid = np.zeros((self.n_vertices, 2))
        for i in range(nb):
            for j in range(nr):
                grid[i * nr + j] = ((j - (nr - 1) / 2) * s, (i - (nb - 1) / 2) * s)
        self.planar_x = _frozen_array(grid)
        self.planar_energy = self.planar_term(self.planar_x)


def _thread_laplacian(threads, n: int) -> np.ndarray:
    """Adjacency-minus-degree matrix of the disjoint thread cycles."""
    L = np.zeros((n, n))
    for thread in threads:
        m = len(thread)
        if m == 1:
            continue  # a single crossing has no in-thread neighbor terms
        for k in range(m):
            u, v = thread[k], thread[(k + 1) % m]
            L[u, v] += 1.0
            L[v, u] += 1.0
            L[u, u] -= 1.0
            L[v, v] -= 1.0
    return L


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
    # verify the layout equation on the original system
    resid = np.zeros_like(x)
    tension = x[system._edge_v] + system._edge_shift - x[system._edge_u]
    np.add.at(resid, system._edge_u, tension)
    np.add.at(resid, system._edge_v, -tension)
    if len(system.edges) and np.max(np.abs(resid)) > 1e-10:
        raise SingularSystem(
            f"harmonic layout residual {np.max(np.abs(resid)):.3e} exceeds 1e-10"
        )
    return x


def _validate_graph(graph: PeriodicQuotientGraph):
    n = graph.n_vertices
    if not isinstance(n, int) or n < 1:
        raise InvalidGraph(f"vertex count must be a positive integer, got {n!r}")
    basis = np.asarray(graph.lattice_basis, dtype=float)
    if basis.shape != (2, 2):
        raise InvalidLattice(f"lattice basis must be two 2-vectors, got shape {basis.shape}")
    det = basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]
    scale = max(1.0, float(np.max(np.abs(basis))) ** 2)
    if abs(det) <= 1e-12 * scale:
        raise InvalidLattice("lattice basis vectors are linearly dependent")
    for u, v, shift in graph.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraph(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if len(shift) != 2:
            raise InvalidGraph(f"edge ({u}, {v}) shift must be a 2-vector, got {shift!r}")
        if u == v and shift[0] == 0 and shift[1] == 0:
            raise InvalidGraph(
                f"vertex {u} has a self-loop with zero shift; such an edge "
                "collapses to a point in every periodic realization"
            )
    # connectivity of the underlying multigraph (shifts ignored)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _ in graph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    if len({find(v) for v in range(n)}) != 1:
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
    out = np.zeros(n, dtype=int)
    for v, value in enumerate(values):
        iv = int(value)
        if iv != value or iv not in (1, -1):
            raise InvalidGraph(f"crossing sign at vertex {v} must be +1 or -1, got {value!r}")
        out[v] = iv
    return out


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
        raise ValueError(f"sign matrix has {len(design.sign)} rows for {nb} blue threads")
    for i, row in enumerate(design.sign):
        if len(row) != nr:
            raise ValueError(f"sign row {i} has {len(row)} entries for {nr} red threads")
        for j, value in enumerate(row):
            if value == 0:
                raise ZeroSignEntry(f"sign entry ({i}, {j}) is zero")
            if int(value) not in (1, -1):
                raise ValueError(f"sign entry ({i}, {j}) must be +1 or -1, got {value!r}")
    if not (isinstance(design.spacing, (int, float)) and design.spacing > 0):
        raise ValueError(f"spacing must be positive, got {design.spacing!r}")
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
    barycenter is shifted to zero.
    """
    if gap_scale <= 0:
        raise ValueError(f"gap_scale must be positive, got {gap_scale!r}")
    rng = np.random.default_rng(seed)
    n = system.n_vertices
    sign = system.sign.astype(float)
    zb = sign * (gap_scale + rng.uniform(0.0, gap_scale, n))
    zr = -sign * (gap_scale + rng.uniform(0.0, gap_scale, n))
    shift = float(np.sum(zb + zr)) / (2 * n)
    zb -= shift
    zr -= shift
    return Configuration(x=system.planar_x, z_blue=zb, z_red=zr)
