"""Post-hoc analysis: spectra, commutation, power-law fits, flatness,
separation growth, and limit comparison.

Spectra are reported for the negated Laplacian in ascending order, so
connectivity Laplacians (which are negative semidefinite) yield the familiar
nonnegative values.  A matrix's spectrum comes from LAPACK through
`numpy.linalg.eigh` (`eigendecompose`), which is how a graph's is computed.
A weave's Laplacian is the Kronecker sum I ⊗ C_{n_red} + C_{n_blue} ⊗ I of
two thread-cycle Laplacians, so `weave_spectrum` adds the cycles'
closed-form spectra and `commutation_check` multiplies the two families'
edge lists; neither builds an n x n matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EntangledInput,
    InsufficientSamples,
    InvalidParameter,
    MismatchedVertexSet,
    NonpositiveValue,
    NotConverged,
    NotSymmetric,
    UnknownComponent,
    WrongKind,
)
from .model import _laplacian_entries
from .topology import is_entangled

__all__ = [
    "Series",
    "EigenData",
    "ScalingReport",
    "eigendecompose",
    "weave_spectrum",
    "commutation_check",
    "fit_power_law",
    "separation_series",
    "flatness_series",
    "compare_limits",
]

# a window must contain at least this many samples for a meaningful fit
_MIN_FIT_SAMPLES = 20


@dataclass(frozen=True, eq=False)
class Series:
    """A named time series."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        try:
            times, values = np.asarray(self.times), np.asarray(self.values)
        except ValueError:  # ragged sequences: fail the check below
            times = values = np.asarray(None)
        real = {times.dtype.kind, values.dtype.kind} <= set("biuf")  # not text, complex or objects
        if not (real and times.ndim == 1 and times.shape == values.shape):
            raise InvalidParameter(f"series {self.name!r} needs real 1-D times and values of one length")
        object.__setattr__(self, "times", np.asarray(times, dtype=float))
        object.__setattr__(self, "values", np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False)
class EigenData:
    """Ascending eigenvalues of the negated matrix, with orthonormal
    eigenvector columns (column k pairs with eigenvalues[k])."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ScalingReport:
    """Least-squares power-law fit of a series over a time window."""

    series_name: str
    window: tuple
    slope: float
    intercept: float
    r_squared: float


def eigendecompose(matrix) -> EigenData:
    """Full spectrum of the negated symmetric matrix by LAPACK
    (`numpy.linalg.eigh`).

    Columns are sign-normalized so their largest-magnitude entry is positive;
    a connectivity Laplacian therefore gets the +1/sqrt(n) kernel vector
    first.
    """
    try:
        M = np.asarray(matrix)
    except ValueError:  # rows of unequal lengths
        raise NotSymmetric("expected a square matrix, got rows of unequal lengths") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    if M.dtype.kind not in "biuf" or M.size == 0:  # text, complex, objects or 0 x 0
        raise NotSymmetric(f"expected a non-empty real matrix, got shape {M.shape}, {M.dtype}")
    if not np.isfinite(M).all():
        raise NotSymmetric("matrix has non-finite entries")
    M = M.astype(float, copy=False)
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric")

    values, vectors = np.linalg.eigh(-M)
    values = values + 0.0  # adding +0.0 turns any -0.0 into +0.0
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(M.shape[0])]
    vectors = vectors * np.where(lead < 0.0, -1.0, 1.0)
    return EigenData(eigenvalues=values, eigenvectors=vectors)


def _cycle_spectrum(m: int) -> np.ndarray:
    """Eigenvalues 4 sin²(πk/m), k = 0..m-1, of one negated thread-cycle
    Laplacian C_m, with k and m - k given the same value.  A 1-crossing
    thread's loop is dropped (0) and a 2-crossing thread keeps its double
    edge (0, 4), as `_sorted_edges` builds them."""
    k = np.arange(m)
    return 4.0 * np.sin(np.pi * np.minimum(k, m - k) / m) ** 2


def weave_spectrum(system) -> np.ndarray:
    """Ascending eigenvalues of a weave's negated Laplacian, in closed form.

    The blue Laplacian is I ⊗ C_{n_red} and the red one C_{n_blue} ⊗ I, so
    their sum is a Kronecker sum, whose eigenvalues are every sum of one
    eigenvalue of each cycle (Horn and Johnson, *Topics in Matrix Analysis*,
    §4.4).  No n x n matrix is built.
    """
    if system.kind != "weave":
        raise WrongKind(f"expected a weave system, got kind={system.kind!r}")
    n_blue, n_red = system._grid.shape
    return np.sort(np.add.outer(_cycle_spectrum(n_blue), _cycle_spectrum(n_red)), axis=None)


def _commutator_norm(blue_edges, red_edges, n: int) -> float:
    """Elementwise sup norm of L_B L_R - L_R L_B for the Laplacians on n
    vertices of two loop-free edge lists (2 x m arrays).

    P = L_B L_R is formed as a sparse product with exact integer weights.
    Both Laplacians are symmetric, so L_R L_B = Pᵀ and the commutator is
    P - Pᵀ.
    """
    bi, bj, bw = _laplacian_entries(*blue_edges)
    rj, rk, rw = _laplacian_entries(*red_edges)
    order = np.argsort(rj, kind="stable")
    rj, rk, rw = rj[order], rk[order], rw[order]
    # pair each blue entry (i, j) with every red entry in row j
    start = np.searchsorted(rj, bj, side="left")
    count = np.searchsorted(rj, bj, side="right") - start
    b = np.repeat(np.arange(bj.size), count)
    r = np.arange(b.size) + np.repeat(start - (np.cumsum(count) - count), count)
    keys, slot = np.unique(bi[b] * n + rk[r], return_inverse=True)
    P = np.bincount(slot, weights=bw[b] * rw[r])
    # the entry of P at the transposed position, 0 where P has none
    transposed = keys % n * n + keys // n
    at = np.minimum(np.searchsorted(keys, transposed), keys.size - 1)
    PT = np.where(keys[at] == transposed, P[at], 0.0)
    return float(np.max(np.abs(P - PT), initial=0.0))


def commutation_check(system) -> float:
    """Elementwise sup norm of the commutator of the two family Laplacians
    (exactly zero for every weave), from the height edges: no n x n matrix
    is built."""
    if system.kind != "weave":
        raise WrongKind(f"expected a weave system, got kind={system.kind!r}")
    return _commutator_norm(*system._height_edges, system.n_vertices)


def fit_power_law(series: Series, window) -> ScalingReport:
    """Least-squares line on (log t, log value) restricted to the window."""
    try:
        lo, hi = map(float, window)
    except (TypeError, ValueError):  # not exactly two numbers: fails the check below
        lo = hi = 0.0
    if not (0.0 < lo < hi):
        raise InvalidParameter(f"window must satisfy 0 < lo < hi, got {window!r}")
    mask = (series.times >= lo) & (series.times <= hi)
    count = int(np.count_nonzero(mask))
    if count < _MIN_FIT_SAMPLES:
        raise InsufficientSamples(
            f"{count} samples in window [{lo!r}, {hi!r}], need at least {_MIN_FIT_SAMPLES}"
        )
    values = series.values[mask]
    if np.any(values <= 0.0):
        raise NonpositiveValue(
            f"series {series.name!r} has nonpositive values inside the window"
        )
    x = np.log(series.times[mask])
    y = np.log(values)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    sxy = float(np.dot(xc, yc))
    syy = float(np.dot(yc, yc))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    r_squared = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return ScalingReport(
        series_name=series.name,
        window=(lo, hi),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
    )


def separation_series(trajectory):
    """Separation curves of an untangled run.

    One series |M_B - M_R| for quotient graphs; for weaves, one series per
    cut between consecutive tangle components, comparing the summed
    barycenters above and below the cut.
    """
    system = trajectory.system
    times = trajectory.t
    if is_entangled(system):
        kind = "graph" if system.kind == "entangled-graph" else "weave"
        raise EntangledInput(f"separation is undefined for an entangled {kind} run")
    if system.kind == "entangled-graph":
        return [Series("separation", times, np.abs(trajectory.m_blue - trajectory.m_red))]
    m = trajectory.m_components  # one column per tangle component, top to bottom
    return [
        Series(f"separation_cut_{k}", times, np.abs(m[:, :k].sum(axis=1) - m[:, k:].sum(axis=1)))
        for k in range(1, m.shape[1])
    ]


def _flatness(heights) -> np.ndarray:
    """Per row of heights, the sup deviation from the row's mean."""
    return np.max(np.abs(heights - heights.mean(axis=1, keepdims=True)), axis=1)


def flatness_series(trajectory, component) -> Series:
    """Sup deviation of a component's heights from their mean, per sample.

    Graphs take component "blue" or "red"; weaves take a 1-based tangle
    component index.
    """
    system = trajectory.system
    n = system.n_vertices
    if system.kind == "entangled-graph":
        if component not in ("blue", "red"):
            raise UnknownComponent(
                f"graph components are 'blue' and 'red', got {component!r}"
            )
        half = trajectory.heights[:, :n] if component == "blue" else trajectory.heights[:, n:]
        return Series(f"flatness_{component}", trajectory.t, _flatness(half))

    k = len(system._components)
    if (
        isinstance(component, bool)
        or not isinstance(component, (int, np.integer))
        or not 1 <= int(component) <= k
    ):
        raise UnknownComponent(
            f"weave components are 1..{k}, got {component!r}"
        )
    blue_vertices, red_vertices = system._components[int(component) - 1]
    # a C-ordered gather, so each row's mean sums in the order of a 1-D mean
    heights = np.take(trajectory.heights, np.concatenate((blue_vertices, red_vertices + n)), axis=1)
    return Series(f"flatness_W{int(component)}", trajectory.t, _flatness(heights))


def compare_limits(traj_a, traj_b, tol: float = 1e-4):
    """Sup-norm distance between two converged limits after shifting both
    global height barycenters to zero.  Returns (within_tol, residual)."""
    for traj in (traj_a, traj_b):
        if traj.status != "converged":
            raise NotConverged(
                f"trajectory ended with status {traj.status!r}; need a converged limit"
            )
    a, b = traj_a.heights[-1], traj_b.heights[-1]
    n = a.size // 2
    if b.size != a.size:
        raise MismatchedVertexSet(
            f"configurations have different sizes: ({n},) vs ({b.size // 2},)"
        )

    def aligned(y):
        return y - float(np.sum(y[:n]) + np.sum(y[n:])) / (2 * n)

    residual = float(np.max(np.abs(aligned(a) - aligned(b))))
    return residual <= tol, residual
