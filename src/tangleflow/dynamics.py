"""Energy, descent gradient, and guarded adaptive integration.

The heights follow the steepest-descent flow of the energy: a quadratic
stretching term along edges (per thread family for weaves) plus a 1/|gap|
repulsion between the two copies at every vertex.  Graphs and weaves share
one path: the state is the stacked heights z = [z_blue; z_red] (then the
flattened planar coordinates, if they flow), with one Laplacian per family.
`step` and `integrate` take the same guarded step: classical fourth-order
Runge-Kutta, rejected when the end state breaks a structural guard
(finiteness, crossing signs, gap floor) or raises the energy; `integrate`
adapts dt between the configured bounds.  Only recorded samples carry a
`Configuration`.  The step loop reads per-system constants (float signs,
doubled Laplacians) that each `integrate`, `step` or `gradient` call builds
for itself and drops when it returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GapGuardTripped,
    InvalidInitial,
    InvalidParameter,
    MismatchedVertexSet,
    NonFiniteHeights,
    StepUnderflow,
    ZeroGap,
)
from .model import Configuration
from .topology import tangle_decomposition

__all__ = [
    "FlowParams",
    "Sample",
    "Trajectory",
    "energy_entangled",
    "energy_weave",
    "gradient",
    "stationarity_residual",
    "step",
    "integrate",
]

# accepted steps may raise the energy by at most this fraction of the
# initial energy (absorbs rounding noise near stationarity)
_ENERGY_CUSHION = 1e-13

# the classical RK4 stability interval on the negative real axis ends near
# 2.785; keep lambda*dt under this margin so stiff gap modes stay damped
# instead of cycling between growth and energy-guard rejection
_STABILITY_MARGIN = 2.5

# the guard rejects non-finite states and the stability bound overflows to
# an infinite gap cube, so the step loop runs with these warnings silenced
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


@dataclass(frozen=True)
class FlowParams:
    """Integrator controls.  Steps start at dt_init, halve on rejection down
    to dt_min, and grow by 25% per accepted step up to dt_max (never beyond
    the stability estimate for the current minimum gap)."""

    dt_init: float = 1e-3
    dt_min: float = 1e-9
    dt_max: float = 0.1
    t_max: float = 1e4
    grad_tol: float = 1e-10
    gap_safety: float = 0.5
    record_stride: int = 100

    def __post_init__(self):
        if not self.dt_min > 0:
            raise InvalidParameter(f"dt_min must be positive, got {self.dt_min!r}")
        if not self.dt_min <= self.dt_init:  # also rejects NaN
            raise InvalidParameter(
                f"dt_init ({self.dt_init!r}) must be at least dt_min ({self.dt_min!r})"
            )
        if not self.dt_init <= self.dt_max:
            raise InvalidParameter(
                f"dt_max ({self.dt_max!r}) must be at least dt_init ({self.dt_init!r})"
            )
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise InvalidParameter(f"t_max must be positive and finite, got {self.t_max!r}")
        if not (self.grad_tol > 0 and math.isfinite(self.grad_tol)):
            raise InvalidParameter(f"grad_tol must be positive and finite, got {self.grad_tol!r}")
        if not 0.0 < self.gap_safety < 1.0:
            raise InvalidParameter(
                f"gap_safety must lie strictly between 0 and 1, got {self.gap_safety!r}"
            )
        if not (isinstance(self.record_stride, int) and self.record_stride >= 1):
            raise InvalidParameter(
                f"record_stride must be a positive integer, got {self.record_stride!r}"
            )


@dataclass(frozen=True)
class Sample:
    """One recorded trajectory point with its diagnostics."""

    t: float
    config: Configuration
    energy: float
    grad_norm: float
    min_gap: float
    m_blue: float
    m_red: float
    m_components: tuple = ()


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run."""

    system: object
    samples: tuple
    status: str  # "converged" or "truncated"


def _stacked(config) -> np.ndarray:
    return np.concatenate((config.z_blue, config.z_red))


def _checked_gaps(system, config) -> np.ndarray:
    """The gaps z_blue - z_red of heights that fit the system, are finite and
    nowhere touch."""
    n = system.n_vertices
    zb, zr = config.z_blue, config.z_red
    if zb.shape != (n,) or zr.shape != (n,):
        raise MismatchedVertexSet(
            f"height arrays must have shape ({n},), got {zb.shape} and {zr.shape}"
        )
    if not (np.all(np.isfinite(zb)) and np.all(np.isfinite(zr))):
        raise NonFiniteHeights("heights must be finite")
    d = zb - zr
    zero = np.nonzero(d == 0.0)[0]
    if zero.size:
        raise ZeroGap(int(zero[0]))
    return d


def _energy(system, zb, zr, gaps, x_term) -> float:
    """Energy of the heights zb, zr, given their nonzero absolute gaps and
    the planar term x_term."""
    return (
        x_term
        + float(-(zb.dot(system.blue_laplacian).dot(zb)) - zr.dot(system.red_laplacian).dot(zr))
        + float(np.add.reduce(1.0 / gaps))
    )


def _total_energy(system, config) -> float:
    gaps = np.abs(_checked_gaps(system, config))
    return _energy(system, config.z_blue, config.z_red, gaps, system.planar_term(config.x))


def energy_entangled(system, config) -> float:
    """Energy of a quotient-graph realization."""
    if system.kind != "entangled-graph":
        raise TypeError(f"expected an entangled-graph system, got kind={system.kind!r}")
    return _total_energy(system, config)


def energy_weave(system, config) -> float:
    """Energy of a weave realization."""
    if system.kind != "weave":
        raise TypeError(f"expected a weave system, got kind={system.kind!r}")
    return _total_energy(system, config)


class _StepKernel:
    """The constants of the step loop of one system: the crossing signs as
    floats (so sign / d^2 casts nothing) and the bound `dot` of the doubled
    Laplacians, shared when both families have the same one.  Doubling is
    exact, so (2 L) z equals 2 (L z) bit for bit."""

    def __init__(self, system):
        self.system = system
        self.n = system.n_vertices
        self.sign = system.sign.astype(float)
        two_blue = 2.0 * system.blue_laplacian
        two_red = two_blue if system.red_laplacian is system.blue_laplacian else 2.0 * system.red_laplacian
        self.blue_dot = two_blue.dot
        self.red_dot = two_red.dot


def _velocity(kernel, y):
    """Descent velocity (negative energy gradient) of the stacked state y:
    2 L_B z_blue + sign/d^2 and 2 L_R z_red - sign/d^2, followed by the
    planar velocity when y carries the planar coordinates."""
    n = kernel.n
    zb, zr = y[:n], y[n:2 * n]
    d2 = zb - zr
    d2 *= d2
    repulsion = np.divide(kernel.sign, d2, out=d2)
    v = np.empty(y.size)
    blue, red = v[:n], v[n:2 * n]
    kernel.blue_dot(zb, blue)
    blue += repulsion
    kernel.red_dot(zr, red)
    red -= repulsion
    if y.size > 2 * n:
        v[2 * n:] = 2.0 * kernel.system._edge_tension(y[2 * n:].reshape(n, 2)).ravel()
    return v


def gradient(system, config):
    """Descent direction (v_blue, v_red) of the height flow at config."""
    _checked_gaps(system, config)
    with np.errstate(**_QUIET):
        v = _velocity(_StepKernel(system), _stacked(config))
    return v[: system.n_vertices], v[system.n_vertices:]


def stationarity_residual(system, config) -> float:
    """Sup norm of the descent velocity; zero exactly at stationary points."""
    return float(np.max(np.abs(np.concatenate(gradient(system, config)))))


def _guard_reason(kernel, y, gap_floor):
    """Why the state y is structurally unacceptable, as a string; when it
    is acceptable, its absolute gaps |z_blue - z_red| instead."""
    n = kernel.n
    d = y[:n] - y[n:2 * n]
    gaps = d * kernel.sign
    # every signed gap at or above the floor (false for NaN) and a finite sum
    # (false for any inf or NaN entry) imply that all the checks below pass;
    # the signed gaps are then the absolute ones
    if np.minimum.reduce(gaps) >= gap_floor and math.isfinite(np.add.reduce(y)):
        return gaps
    if not np.all(np.isfinite(y)):
        return "non-finite heights"
    if np.any(np.sign(d) != kernel.sign):
        return "crossing sign flipped"
    if float(np.min(np.abs(d))) < gap_floor:
        return f"minimum gap fell below the floor {gap_floor:.3e}"
    return gaps  # only the sum overflowed; the signs hold, so these are |d|


def _guarded_step(kernel, y, k1, dt, gap_floor, energy_cap, x_term):
    """One Runge-Kutta step of size dt from the stacked state y, where k1 is
    the velocity at y and x_term the planar term of a fixed layout.

    Returns (y_new, energy, gaps, reason): reason is None when the step
    passes the guard and its energy stays at or below energy_cap.
    """
    half = 0.5 * dt
    k2 = _velocity(kernel, y + half * k1)
    k3 = _velocity(kernel, y + half * k2)
    k4 = _velocity(kernel, y + dt * k3)
    y_new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    gaps = _guard_reason(kernel, y_new, gap_floor)
    if isinstance(gaps, str):
        return y_new, None, None, gaps
    n, system = kernel.n, kernel.system
    if y.size > 2 * n:
        x_term = system.planar_term(y_new[2 * n:].reshape(n, 2))
    energy = _energy(system, y_new[:n], y_new[n:2 * n], gaps, x_term)
    if energy > energy_cap:
        return y_new, energy, gaps, "energy increased"
    return y_new, energy, gaps, None


def step(system, config, dt) -> Configuration:
    """One guarded Runge-Kutta step of size dt: the step `integrate` takes.

    The end state must keep finite heights and every crossing sign, no gap
    may fall below the default gap_safety divided by the energy at the input
    configuration, and the energy may not rise beyond the integrator's
    rounding cushion.  Otherwise GapGuardTripped is raised.
    """
    x_term = system.planar_term(config.x)
    energy = _energy(system, config.z_blue, config.z_red, np.abs(_checked_gaps(system, config)), x_term)
    y = _stacked(config)
    kernel = _StepKernel(system)
    with np.errstate(**_QUIET):
        y_new, _, _, reason = _guarded_step(
            kernel, y, _velocity(kernel, y), dt, FlowParams.gap_safety / energy,
            energy + _ENERGY_CUSHION * abs(energy), x_term,
        )
    if reason is not None:
        raise GapGuardTripped(f"step of size {dt!r} rejected: {reason}")
    n = system.n_vertices
    return Configuration(x=config.x, z_blue=y_new[:n], z_red=y_new[n:])


def integrate(system, config0, params: FlowParams = FlowParams(), flow_planar: bool = False) -> Trajectory:
    """Run the guarded descent flow from config0.

    Stops with status "converged" when the sup-norm velocity drops below
    grad_tol, or "truncated" at t_max.  Samples are recorded at t = 0, after
    every record_stride-th accepted step, and at the final state.  A step is
    rejected (and dt halved) when it trips a structural guard or raises the
    energy; rejection at dt_min raises StepUnderflow.  Initial states with
    misshapen or non-finite coordinates, violated crossing signs, or a
    non-finite energy or velocity raise InvalidInitial.
    """
    n = system.n_vertices
    z_blue, z_red, x0 = config0.z_blue, config0.z_red, config0.x
    if z_blue.shape != (n,) or z_red.shape != (n,) or x0.shape != (n, 2):
        raise InvalidInitial(f"initial heights must have shape ({n},), planar coordinates ({n}, 2)")
    if not (np.all(np.isfinite(z_blue)) and np.all(np.isfinite(z_red)) and np.all(np.isfinite(x0))):
        raise InvalidInitial("initial heights and planar coordinates must be finite")
    d0 = z_blue - z_red
    flipped = np.nonzero(np.sign(d0) != system.sign)[0]  # a zero gap has sign 0
    if flipped.size:
        raise InvalidInitial(f"initial heights violate the crossing sign at vertex {flipped[0]}")

    y = np.concatenate((z_blue, z_red, x0.ravel()) if flow_planar else (z_blue, z_red))
    x_term = system.planar_term(x0)
    kernel = _StepKernel(system)
    with np.errstate(**_QUIET):
        e0 = _energy(system, z_blue, z_red, np.abs(d0), x_term)
        v = _velocity(kernel, y)
    grad_norm = float(np.maximum.reduce(np.abs(v)))
    if not (math.isfinite(e0) and math.isfinite(grad_norm)):
        raise InvalidInitial(f"initial energy {e0!r} or velocity {grad_norm!r} is not finite")

    gap_floor = params.gap_safety / e0
    # per tangle component, top to bottom: the vertices its barycenter sums
    members = (
        [system._component_vertices(c) for c in tangle_decomposition(system).components]
        if system.kind == "weave"
        else ()
    )
    # Gershgorin bound on the stretching part of the flow Jacobian; the gap
    # repulsion adds at most 4/min_gap^3 on top of it
    quad_rate = 2.0 * max(
        float(np.max(np.sum(np.abs(system.blue_laplacian), axis=1))),
        float(np.max(np.sum(np.abs(system.red_laplacian), axis=1))),
    )

    def sample(t, y, energy, grad_norm):
        x = y[2 * n:].reshape(n, 2) if flow_planar else x0
        config = Configuration(x=x, z_blue=y[:n], z_red=y[n:2 * n])
        return Sample(
            t=t,
            config=config,
            energy=energy,
            grad_norm=grad_norm,
            min_gap=float(np.min(np.abs(config.z_blue - config.z_red))),
            m_blue=float(np.mean(config.z_blue)),
            m_red=float(np.mean(config.z_red)),
            m_components=tuple(
                float(np.sum(config.z_blue[blue])) + float(np.sum(config.z_red[red]))
                for blue, red in members
            ),
        )

    t = 0.0
    dt = params.dt_init
    energy = e0
    samples = [sample(t, y, energy, grad_norm)]
    accepted = 0
    cushion = _ENERGY_CUSHION * abs(e0)

    with np.errstate(**_QUIET):
        while True:
            if grad_norm < params.grad_tol:
                status = "converged"
                break
            if t >= params.t_max:
                status = "truncated"
                break
            dt_eff = min(dt, params.t_max - t)
            y_new, new_energy, gaps, reason = _guarded_step(
                kernel, y, v, dt_eff, gap_floor, energy + cushion, x_term
            )
            if reason is not None:
                if dt_eff <= params.dt_min:
                    raise StepUnderflow(t, dt_eff)
                dt = max(dt_eff / 2.0, params.dt_min)
                continue
            t += dt_eff
            y = y_new
            energy = new_energy
            accepted += 1
            # an overflowing gap cube is an infinite one: no repulsion limit
            stable_dt = _STABILITY_MARGIN / (quad_rate + 4.0 / float(np.minimum.reduce(gaps) ** 3))
            dt = max(params.dt_min, min(dt * 1.25, params.dt_max, stable_dt))
            v = _velocity(kernel, y)
            grad_norm = float(np.maximum.reduce(np.abs(v)))
            if accepted % params.record_stride == 0:
                samples.append(sample(t, y, energy, grad_norm))

    if samples[-1].t < t:
        samples.append(sample(t, y, energy, grad_norm))
    return Trajectory(system=system, samples=tuple(samples), status=status)
