"""Post-hoc analysis: spectra, commutation, power-law fits, flatness,
separation growth, and limit comparison.

Spectra come from LAPACK through `numpy.linalg.eigh`; they are reported for
the negated input in ascending order, so connectivity Laplacians (which are
negative semidefinite) yield the familiar nonnegative values.
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
)
from .topology import Classification, classify_entangled_graph, tangle_decomposition

__all__ = [
    "Series",
    "EigenData",
    "ScalingReport",
    "eigendecompose",
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
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


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
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric")

    values, vectors = np.linalg.eigh(-M)
    values = values + 0.0  # adding +0.0 turns any -0.0 into +0.0
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(M.shape[0])]
    vectors = vectors * np.where(lead < 0.0, -1.0, 1.0)
    return EigenData(eigenvalues=values, eigenvectors=vectors)


def commutation_check(system) -> float:
    """Elementwise sup norm of the commutator of the two family Laplacians
    (exactly zero for every weave)."""
    if system.kind != "weave":
        raise TypeError(f"expected a weave system, got kind={system.kind!r}")
    b, r = system.blue_laplacian, system.red_laplacian
    return float(np.max(np.abs(b @ r - r @ b)))


def fit_power_law(series: Series, window) -> ScalingReport:
    """Least-squares line on (log t, log value) restricted to the window."""
    lo, hi = float(window[0]), float(window[1])
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


def separation_series(trajectory, decomposition=None):
    """Separation curves of an untangled run.

    One series |M_B - M_R| for quotient graphs; for weaves, one series per
    cut between consecutive tangle components, comparing the summed
    barycenters above and below the cut.
    """
    system = trajectory.system
    times = np.array([s.t for s in trajectory.samples])
    if system.kind == "entangled-graph":
        if classify_entangled_graph(system) is Classification.ENTANGLED:
            raise EntangledInput("separation is undefined for an entangled graph run")
        values = np.array([abs(s.m_blue - s.m_red) for s in trajectory.samples])
        return [Series("separation", times, values)]

    decomp = decomposition if decomposition is not None else tangle_decomposition(system)
    k_total = decomp.k
    if k_total == 1:
        raise EntangledInput("separation is undefined for an entangled weave run")
    out = []
    components = np.array([s.m_components for s in trajectory.samples])
    for k in range(1, k_total):
        values = np.abs(
            components[:, :k].sum(axis=1) - components[:, k:].sum(axis=1)
        )
        out.append(Series(f"separation_cut_{k}", times, values))
    return out


def flatness_series(trajectory, component) -> Series:
    """Sup deviation of a component's heights from their mean, per sample.

    Graphs take component "blue" or "red"; weaves take a 1-based tangle
    component index.
    """
    system = trajectory.system
    times = np.array([s.t for s in trajectory.samples])
    if system.kind == "entangled-graph":
        if component not in ("blue", "red"):
            raise UnknownComponent(
                f"graph components are 'blue' and 'red', got {component!r}"
            )
        values = []
        for s in trajectory.samples:
            z = s.config.z_blue if component == "blue" else s.config.z_red
            values.append(float(np.max(np.abs(z - z.mean()))))
        return Series(f"flatness_{component}", times, np.array(values))

    decomp = tangle_decomposition(system)
    if (
        isinstance(component, bool)
        or not isinstance(component, (int, np.integer))
        or not 1 <= int(component) <= decomp.k
    ):
        raise UnknownComponent(
            f"weave components are 1..{decomp.k}, got {component!r}"
        )
    blue_vertices, red_vertices = system._component_vertices(decomp.components[int(component) - 1])
    values = []
    for s in trajectory.samples:
        heights = np.concatenate(
            [s.config.z_blue[blue_vertices], s.config.z_red[red_vertices]]
        )
        values.append(float(np.max(np.abs(heights - heights.mean()))))
    return Series(f"flatness_W{int(component)}", times, np.array(values))


def compare_limits(traj_a, traj_b, tol: float = 1e-4):
    """Sup-norm distance between two converged limits after shifting both
    global height barycenters to zero.  Returns (within_tol, residual)."""
    for traj in (traj_a, traj_b):
        if traj.status != "converged":
            raise NotConverged(
                f"trajectory ended with status {traj.status!r}; need a converged limit"
            )
    a = traj_a.samples[-1].config
    b = traj_b.samples[-1].config
    if a.z_blue.shape != b.z_blue.shape:
        raise MismatchedVertexSet(
            f"configurations have different sizes: {a.z_blue.shape} vs {b.z_blue.shape}"
        )
    n = a.z_blue.shape[0]

    def aligned(config):
        shift = float(np.sum(config.z_blue) + np.sum(config.z_red)) / (2 * n)
        return config.z_blue - shift, config.z_red - shift

    ab, ar = aligned(a)
    bb, br = aligned(b)
    residual = max(
        float(np.max(np.abs(ab - bb))), float(np.max(np.abs(ar - br)))
    )
    return residual <= tol, residual
