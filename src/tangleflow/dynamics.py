"""Energy, descent gradient, and guarded adaptive integration.

The heights follow the steepest-descent flow of the energy: a quadratic
stretching term along edges (per thread family for weaves) plus a 1/|gap|
repulsion between the two copies at every vertex.  Graphs and weaves share
one path: the state is the stacked heights z = [z_blue; z_red], with the
system's height edges and Laplacian per family; the planar layout stays
fixed.  The energy sums over the edges.  The velocity multiplies by a
graph's dense Laplacians and, for a weave, by the two thread-cycle matrices
its Laplacians are Kronecker products of, so no weave flow path but the
Rosenbrock W refresh forms an n x n matrix (see `_StepKernel`).
`step` and `integrate` take the same guarded step: classical fourth-order
Runge-Kutta, rejected when the end state breaks a structural guard
(finiteness, crossing signs, gap floor) or raises the energy; `integrate`
adapts dt between the configured bounds.

`integrate` runs in two phases.  Untangled systems never converge: their
components drift apart like t^(1/3), and RK4 would crawl along that smooth
tail at dt_max.  So once an untangled run has held dt at its cap for
`_SWITCH_STEPS` consecutive accepted steps, it switches to the L-stable
Rosenbrock-W method ROS34PW2 (Rang and Angermann 2005) with step-size
control from its embedded second-order estimate, in the manner of LSODA's
nonstiff-to-stiff switch.  ROS34PW2 is third order for any W, but its error
estimate is only as good as W = I - gamma h J is close to the current
Jacobian.  So W is inverted anew when h changes or t has doubled since it
was built (the coupling between components fades like 1/t), and reused
otherwise.  Every Rosenbrock step passes the same guards as an RK4 step,
and since its steps grow to thousands in t, the phase also records the flow
on a log grid of t (`_GRID_PER_DECADE` times per decade) from each step's
cubic Hermite dense output.  Entangled runs and runs that end before the
switch (t ~ 10 on the bundled designs) stay on RK4 throughout.

Both phases evaluate a candidate end state in one place, `_end_state`: the
guard, then the velocity there, once, which gives the sup-norm convergence
test and the next step's first stage (RK4's k1, the Rosenbrock step's v), as
in the "first same as last" Runge-Kutta pairs of Dormand and Prince (1980),
then the energy, from `_energy` as everywhere.  The guard's minimum gap sets
the RK4 stability cap on dt.  Grid samples are evaluated by `_end_state` too.

Only recorded samples carry a `Configuration`.  Each `integrate`, `step`
or `gradient` call builds a `_StepKernel` and drops it when it returns: it
derives the run's gap floor, energy cushion and planar term once, counts
the velocity evaluations, and holds the buffers, with per-family views, of
every stage, end state and grid sample; energy calls read only edges.
"""
from __future__ import annotations

import logging
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
from .topology import Classification, classify_entangled_graph, tangle_decomposition

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

# an untangled run switches to the Rosenbrock phase after this many
# consecutive accepted RK4 steps at the dt cap: t = 10.33 on the bundled
# designs, once the transient has settled (dt reaches its cap after ~20
# steps); a t_max=10 run stays RK4
_SWITCH_STEPS = 100

# the Rosenbrock phase keeps its embedded error estimate below this fraction
# of the largest height (or of 1, if no height is larger); at 1e-5 the fitted
# separation prefactors stay within 1.6e-4 of their law, about the fit's own
# finite-horizon bias
_ROS_TOL = 1e-5

# h doubles after a step whose error is below this fraction of the
# tolerance: the local error is O(h^3), so doubling multiplies it by ~8
_ROS_GROW = 0.1

# ROS34PW2 (Rang and Angermann, BIT 45, 2005): a stiffly accurate,
# L-stable Rosenbrock-W method of order 3 for any W, with an embedded
# second-order solution.  Its (alpha, gamma) form, with gamma on the
# diagonal of the lower triangular Gamma:
_ROS_GAMMA = 0.435866521508459
_ROS_ALPHA = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.87173304301691801, 0.0, 0.0, 0.0],
    [0.84457060015369423, -0.11299064236484185, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
])
_ROS_GAMMAS = np.array([
    [_ROS_GAMMA, 0.0, 0.0, 0.0],
    [-0.87173304301691801, _ROS_GAMMA, 0.0, 0.0],
    [-0.90338057013044082, 0.054180672388095326, _ROS_GAMMA, 0.0],
    [0.24212380706095346, -1.2232505839045147, 0.54526025533510214, _ROS_GAMMA],
])
_ROS_B = np.array([0.24212380706095346, -1.2232505839045147, 1.5452602553351020, _ROS_GAMMA])
_ROS_B_HAT = np.array([0.37810903145819369, -0.096042292212423178, 0.5, 0.2179332607542295])

# the same method in the variables u_i = sum_j gamma_ij k_j, which need no
# Jacobian-vector products: W u_i = gamma h v(y + sum_j a_ij u_j)
# + sum_j gamma c_ij u_j, and y_1 = y + sum_j m_j u_j; _ROS_ERROR holds the
# weights of the embedded error, m - m_hat
_ROS_GAMMAS_INV = np.linalg.inv(_ROS_GAMMAS)
_ROS_A = _ROS_ALPHA @ _ROS_GAMMAS_INV
_ROS_GC = -_ROS_GAMMA * np.tril(_ROS_GAMMAS_INV, -1)
_ROS_M = _ROS_B @ _ROS_GAMMAS_INV
_ROS_ERROR = (_ROS_B - _ROS_B_HAT) @ _ROS_GAMMAS_INV
# the weights of u_1..u_i in stage i + 1
_ROS_A_ROWS = tuple(_ROS_A[i, :i] for i in range(4))
_ROS_GC_ROWS = tuple(_ROS_GC[i, :i] for i in range(4))

# the Rosenbrock phase also records the flow at t = 10^(k / N) for every
# integer k, from the dense output of the step that spans it, so that a
# power-law fit window [t_max / 10, t_max] holds enough samples however
# long the steps grow
_GRID_PER_DECADE = 150

_LOG = logging.getLogger("tangleflow")


@dataclass(frozen=True)
class FlowParams:
    """Integrator controls.  RK4 steps start at dt_init, halve on rejection
    down to dt_min, and grow by 25% per accepted step up to dt_max (never
    beyond the stability estimate for the current minimum gap); a sample is
    recorded every record_stride accepted RK4 steps.  dt_max and
    record_stride govern the RK4 phase only: after 100 accepted steps at
    the dt cap (t ~ 10), an untangled run switches to the Rosenbrock phase,
    which chooses its own step size (still at least dt_min) and records
    every accepted step and, between steps, the interpolated flow at the
    times 10^(k / 150)."""

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


def _checked_heights(system, config) -> tuple:
    """The stacked heights [z_blue; z_red] and absolute gaps |z_blue - z_red|
    of heights that fit the system, are finite and nowhere touch."""
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
    return np.concatenate((zb, zr)), np.abs(d)


def _planar_term(system, x) -> float:
    """The planar energy of the layout x: the system's cached
    `planar_energy` when x is its own layout, the same value bit for bit."""
    if np.array_equal(x, system.planar_x):
        return system.planar_energy
    return system.planar_term(x)


def _total_energy(system, config) -> float:
    y, gaps = _checked_heights(system, config)
    return _energy(_stacked_edges(system), y, gaps, _planar_term(system, config.x))


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


def _stacked_edges(system) -> tuple:
    """The system's height edges as endpoint arrays (u, v) in the stacked
    heights: the blue edges, then the red ones offset by n."""
    blue, red = system._height_edges
    return tuple(np.concatenate((blue, red + system.n_vertices), axis=1))


class _Heights:
    """A buffer of stacked heights (or of their velocity) with its per-family
    views, built once: `flat` is the whole buffer, `blue` and `red` its two
    halves in the shape the kernel's products read (length n for a graph,
    the (n_blue, n_red) vertex grid for a weave), taken from `halves`, the
    buffer viewed as two arrays of that shape."""

    __slots__ = ("flat", "blue", "red")

    def __init__(self, flat, halves):
        self.flat = flat
        self.blue, self.red = halves


class _StepKernel:
    """The step loop of one run: its constants, buffers and evaluation count.

    System constants: the crossing signs as floats in the families' shape
    (so sign / d^2 casts nothing), the `_stacked_edges`, the products
    `blue_dot(z, out)` and `red_dot(z, out)`, which write 2 L z into out,
    and `stretching()`, the dense Jacobian blocks 2 L_B and 2 L_R.  A graph
    multiplies by its doubled dense Laplacians, one matrix when both
    families share it.  A weave holds no n x n matrix: its family Laplacians
    are L_B = I (x) C_{n_red} and L_R = C_{n_blue} (x) I, with C_m the
    Laplacian of one thread cycle of m crossings, so on the (n_blue, n_red)
    vertex grid 2 L_B z is Z_b (2 C_{n_red}) and 2 L_R z is (2 C_{n_blue})
    Z_r; only `stretching` forms the blocks, with `np.kron`.  Doubling is
    exact, so (2 L) z equals 2 (L z) bit for bit.

    Run constants, derived here only: the planar term `x_term` of the run's
    layout x; from the energy `e0` of its initial heights y (whose gaps are
    overwritten), the `gap_floor` gap_safety / e0 and the energy `cushion`
    _ENERGY_CUSHION |e0|, with y and its velocity in `y` and `v`.  Without
    x or y these are None or 0.  `evaluations` counts `_velocity` calls.

    Buffers, each a `_Heights` but for the last four, reused by every step
    of a run: the accepted state `y` and its velocity `v`; the candidate end
    state `y_new` and its velocity `v_new` (`accept` swaps the two pairs);
    the RK4 stage state `stage` and stage velocities `k2`, `k3`, `k4`, of
    which a Rosenbrock stage or a grid sample uses `stage` and `k2`; the
    Rosenbrock stages `u`; the absolute gaps `gaps`, with their view
    `gap_view` in the families' shape; the repulsion; and scratch rows."""

    def __init__(self, system, x=None, y=None, gaps=None, gap_safety=FlowParams.gap_safety):
        self.n = n = system.n_vertices
        if system.kind == "weave":
            shape = nb, nr = system._grid.shape
            two_nb, two_nr = (2.0 * c for c in system._thread_cycles)
            self.blue_dot = lambda z, out: np.dot(z, two_nr, out)
            self.red_dot = lambda z, out: np.dot(two_nb, z, out)
            self.stretching = lambda: (np.kron(np.eye(nb), two_nr), np.kron(two_nb, np.eye(nr)))
        else:
            shape = (n,)
            two_blue = 2.0 * system.blue_laplacian
            two_red = two_blue if system.red_laplacian is system.blue_laplacian else 2.0 * system.red_laplacian
            self.blue_dot, self.red_dot = two_blue.dot, two_red.dot
            self.stretching = lambda: (two_blue, two_red)
        self.sign = system.sign.astype(float).reshape(shape)
        self.edges = _stacked_edges(system)
        flat = np.empty((8, 2 * n))
        self.y, self.v, self.y_new, self.v_new, self.stage, self.k2, self.k3, self.k4 = map(
            _Heights, flat, flat.reshape((8, 2) + shape)
        )
        self.u = np.empty((4, 2 * n))
        self.u_heads = tuple(self.u[:i] for i in range(4))  # u_1..u_i, read by stage i + 1
        self.gaps = np.empty(n)
        self.gap_view = self.gaps.reshape(shape)
        self.repulsion = np.empty(shape)
        self.scratch = tuple(np.empty((2, 2 * n)))
        self.evaluations = 0
        self.x_term = None if x is None else _planar_term(system, x)
        self.gap_floor = self.cushion = 0.0
        if y is not None:
            self.y.flat[:] = y
            self.e0 = _energy(self.edges, self.y.flat, gaps, self.x_term)
            self.gap_floor = gap_safety / self.e0
            self.cushion = _ENERGY_CUSHION * abs(self.e0)
            _velocity(self, self.y, self.v)

    def accept(self):
        """Make the candidate end state and its velocity the accepted ones."""
        self.y, self.y_new = self.y_new, self.y
        self.v, self.v_new = self.v_new, self.v


def _energy(edges, y, gaps, x_term) -> float:
    """Energy of the stacked heights y: x_term plus the squared height
    difference along every edge (the `_stacked_edges`, in their order) plus
    the sum of 1 / |d| over the absolute gaps, which are overwritten with
    their reciprocals.  No term is negative, so no shift of the heights
    makes the sum cancel."""
    u, v = edges
    d = y[u]
    d -= y[v]
    return x_term + float(d.dot(d)) + float(np.add.reduce(np.reciprocal(gaps, out=gaps)))


def _velocity(kernel, y, out, gaps=None):
    """Descent velocity (negative energy gradient) of the stacked heights in
    the `_Heights` y, written into the `_Heights` out: 2 L_B z_blue +
    sign/d^2 and 2 L_R z_red - sign/d^2.  gaps, when given, holds y's
    absolute gaps |d| in the families' shape (the guard's), whose squares
    are d^2 bit for bit.  Counted in the kernel's `evaluations`."""
    kernel.evaluations += 1
    d2 = kernel.repulsion
    if gaps is None:
        np.subtract(y.blue, y.red, out=d2)
        d2 *= d2
    else:
        np.multiply(gaps, gaps, out=d2)
    repulsion = np.divide(kernel.sign, d2, out=d2)
    blue, red = out.blue, out.red
    kernel.blue_dot(y.blue, blue)
    blue += repulsion
    kernel.red_dot(y.red, red)
    red -= repulsion
    return out


def _jacobian(kernel, y):
    """Jacobian of `_velocity` in the stacked heights y = [z_blue; z_red]:
    blockdiag(2 L_B, 2 L_R) plus, on each vertex's (blue, red) pair, the
    block [[-D, D], [D, -D]] with D = 2 / |d|^3.  It is symmetric, its
    columns sum to zero (so 1^T J = 0), and it is minus the Hessian of the
    height energy."""
    n = kernel.n
    d = np.abs(y[:n] - y[n:])
    D = 2.0 / (d * d * d)
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n], J[n:, n:] = kernel.stretching()
    blue = np.arange(n)
    red = blue + n
    J[blue, blue] -= D
    J[red, red] -= D
    J[blue, red] = D
    J[red, blue] = D
    return J


def gradient(system, config):
    """Descent direction (v_blue, v_red) of the height flow at config."""
    y, _ = _checked_heights(system, config)
    kernel = _StepKernel(system)
    kernel.y.flat[:] = y
    with np.errstate(**_QUIET):
        v = _velocity(kernel, kernel.y, kernel.v).flat
    return v[: system.n_vertices], v[system.n_vertices:]


def stationarity_residual(system, config) -> float:
    """Sup norm of the descent velocity; zero exactly at stationary points."""
    return float(np.max(np.abs(np.concatenate(gradient(system, config)))))


def _guard_reason(kernel, y, gap_floor):
    """Why the stacked heights in the `_Heights` y are structurally
    unacceptable, as a string; when they are acceptable, their absolute gaps
    |z_blue - z_red| (the kernel's `gaps`) and the minimum gap instead."""
    gaps = kernel.gaps
    signed = np.subtract(y.blue, y.red, out=kernel.gap_view)
    signed *= kernel.sign  # positive exactly where the crossing sign holds
    min_gap = np.minimum.reduce(gaps)
    # every signed gap at or above the floor (false for NaN) and a finite sum
    # (false for any inf or NaN entry) imply that all the checks below pass;
    # the signed gaps are then the absolute ones
    if min_gap >= gap_floor and math.isfinite(np.add.reduce(y.flat)):
        return gaps, min_gap
    if not np.all(np.isfinite(y.flat)):
        return "non-finite heights"
    if not min_gap > 0.0:  # finite heights have no NaN gap
        return "crossing sign flipped"
    if min_gap < gap_floor:
        return f"minimum gap fell below the floor {gap_floor:.3e}"
    return gaps, min_gap  # only the sum overflowed; the signs hold, so these are |d|


def _end_state(kernel, y, v, reference):
    """Evaluate the candidate end state of a step, the `_Heights` y: the
    guard at the kernel's gap floor, then, if it passes, the velocity there,
    once, into the `_Heights` v, from the guard's gaps.  Returns why y is
    rejected, as a string, or (v.flat, energy, grad_norm, min_gap): the
    velocity (the next step's k1), the energy (`_energy`), the sup norm of v
    and the minimum gap.  The state is also rejected when its energy exceeds
    reference by more than the kernel's cushion (or is NaN).
    """
    guard = _guard_reason(kernel, y, kernel.gap_floor)
    if isinstance(guard, str):
        return guard
    gaps, min_gap = guard
    velocity = _velocity(kernel, y, v, kernel.gap_view).flat
    energy = _energy(kernel.edges, y.flat, gaps, kernel.x_term)
    if not energy <= reference + kernel.cushion:
        return "energy increased"
    return velocity, energy, float(np.maximum.reduce(np.abs(velocity, out=kernel.scratch[0]))), min_gap


def _rk4_step(kernel, dt, energy):
    """One Runge-Kutta step of size dt from the kernel's accepted state `y`,
    whose velocity `v` is k1 and whose energy is energy, to its candidate
    `y_new`, with the stages in the kernel's buffers.  Returns the
    `_end_state` of `y_new`, whose velocity goes to `v_new`."""
    y, k1 = kernel.y.flat, kernel.v.flat
    stage = kernel.stage
    k2, k3, k4 = kernel.k2.flat, kernel.k3.flat, kernel.k4.flat
    half = 0.5 * dt
    np.multiply(k1, half, out=stage.flat)
    stage.flat += y
    _velocity(kernel, stage, kernel.k2)
    np.multiply(k2, half, out=stage.flat)
    stage.flat += y
    _velocity(kernel, stage, kernel.k3)
    np.multiply(k3, dt, out=stage.flat)
    stage.flat += y
    _velocity(kernel, stage, kernel.k4)
    # y + dt / 6 (k1 + 2 k2 + 2 k3 + k4), summed left to right; k + k is 2 k
    # bit for bit
    k2 += k2
    k2 += k1
    k3 += k3
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    np.add(k2, y, out=kernel.y_new.flat)
    return _end_state(kernel, kernel.y_new, kernel.v_new, energy)


def step(system, config, dt) -> Configuration:
    """One guarded Runge-Kutta step of size dt: the step `integrate` takes.

    The end state must keep finite heights and every crossing sign, no gap
    may fall below the default gap_safety divided by the energy at the input
    configuration, and the energy may not rise beyond the integrator's
    rounding cushion.  Otherwise GapGuardTripped is raised.
    """
    y, gaps = _checked_heights(system, config)
    with np.errstate(**_QUIET):
        kernel = _StepKernel(system, config.x, y, gaps)
        end = _rk4_step(kernel, dt, kernel.e0)
    if isinstance(end, str):
        raise GapGuardTripped(f"step of size {dt!r} rejected: {end}")
    n = system.n_vertices
    y_new = kernel.y_new.flat
    return Configuration(x=config.x, z_blue=y_new[:n], z_red=y_new[n:])


def _ros_step(kernel, h, w_inv):
    """One ROS34PW2 step of size h from the kernel's accepted state `y`,
    whose velocity is `v`, to its candidate `y_new`, where w_inv is
    W^-1 = (I - gamma h J)^-1 for some approximation J of the Jacobian; the
    stages u_1..u_4 run in the rows of the kernel's `u`, and only u_2..u_4
    evaluate the velocity.  Returns `y_new` and the embedded error estimate,
    a vector."""
    y, stage, f = kernel.y.flat, kernel.stage, kernel.k2
    u, rhs, error = kernel.u, *kernel.scratch
    gamma_h = _ROS_GAMMA * h
    np.multiply(kernel.v.flat, gamma_h, out=rhs)
    np.dot(w_inv, rhs, out=u[0])
    for i in range(1, 4):
        np.dot(_ROS_A_ROWS[i], kernel.u_heads[i], out=stage.flat)
        stage.flat += y
        _velocity(kernel, stage, f)
        f.flat *= gamma_h
        f.flat += np.dot(_ROS_GC_ROWS[i], kernel.u_heads[i], out=rhs)
        np.dot(w_inv, f.flat, out=u[i])
    y_new = kernel.y_new
    np.dot(_ROS_M, u, out=y_new.flat)
    y_new.flat += y
    return y_new, np.dot(_ROS_ERROR, u, out=error)


def _rosenbrock_phase(kernel, t, end, h, params, record):
    """Continue the flow from time t at the kernel's accepted state `y`,
    whose `_end_state` is `end`, with guarded ROS34PW2 steps, starting at
    step size h.

    A step is rejected, and h halved, when its error estimate exceeds the
    tolerance (before its end state is evaluated), it trips a structural
    guard, or its energy exceeds the last accepted one by more than the
    kernel's cushion; rejection at dt_min raises StepUnderflow.  h doubles
    after a step well inside the tolerance.  W is refreshed, from the Jacobian at
    the current state, when h changes or t has doubled since the last
    refresh; the doubling keeps W near the Jacobian as the coupling between
    components fades like 1/t, for O(log t) refreshes.  record(t, y, end) is
    called on every accepted step and, before it, at each grid time
    10^(k / _GRID_PER_DECADE) strictly inside the step, on the cubic Hermite
    interpolant of the step's end states and velocities.  A grid state is
    skipped, not recorded, when it trips a guard, its energy exceeds the
    previous state's by more than the cushion, or it lies more than the
    cushion below the step end's.
    Returns (t, end, status), with the final state in the kernel's `y`.
    """
    size = 2 * kernel.n
    accepted = rejected = refreshes = on_grid = skipped = 0
    evaluations = kernel.evaluations
    h_w = t_w = None  # the step size and the time W^-1 was built for
    # the scratch rows hold the size of y, then a grid sample's slope terms
    grid_state, (slope, weighted) = kernel.stage, kernel.scratch
    # an index below every grid time after t, whatever the rounding of log10
    grid = math.floor(_GRID_PER_DECADE * math.log10(t)) - 1
    v, energy, grad_norm, _ = end
    while True:
        if grad_norm < params.grad_tol:
            status = "converged"
            break
        if t >= params.t_max:
            status = "truncated"
            break
        h_eff = min(h, params.t_max - t)
        y = kernel.y.flat
        if h_eff != h_w or t >= 2.0 * t_w:
            W = _jacobian(kernel, y)
            W *= -_ROS_GAMMA * h_eff
            W.flat[:: size + 1] += 1.0
            w_inv = np.linalg.inv(W)
            # 1^T J = 0 gives 1^T W^-1 = 1^T, and every right-hand side below
            # sums to zero but for the rounding of its velocity, which a long
            # step would carry into the barycenter: project each u onto the
            # zero-sum states by giving every column of W^-1 zero mean
            w_inv -= w_inv.mean(axis=0)
            h_w, t_w = h_eff, t
            refreshes += 1
        y_new, error = _ros_step(kernel, h_eff, w_inv)
        # a non-finite stage makes the error NaN, which fails the test below
        error = float(np.maximum.reduce(np.abs(error, out=error)))
        error /= _ROS_TOL * max(1.0, float(np.maximum.reduce(np.abs(y, out=slope))))
        new_end = (
            _end_state(kernel, y_new, kernel.v_new, energy) if error <= 1.0 else "error estimate above tolerance"
        )
        if isinstance(new_end, str):
            if h_eff <= params.dt_min:
                raise StepUnderflow(t, h_eff)
            h = max(h_eff / 2.0, params.dt_min)
            rejected += 1
            continue
        t_new = t + h_eff
        v_new, energy_new, _, _ = new_end
        last = energy
        while (t_grid := 10.0 ** ((grid + 1) / _GRID_PER_DECADE)) < t_new:
            grid += 1
            if t_grid <= t:
                continue
            theta = (t_grid - t) / h_eff
            # cubic Hermite: the weights on y and y_new sum to 1 and the
            # velocity term sums to zero (its mean is only rounding, which
            # h would amplify), so the barycenter holds
            y_grid = np.subtract(y_new.flat, y, out=grid_state.flat)
            y_grid *= theta * theta * (3.0 - 2.0 * theta)
            y_grid += y
            np.multiply(v, 1.0 - theta, out=slope)
            slope -= np.multiply(v_new, theta, out=weighted)
            slope -= np.add.reduce(slope) / size  # its mean, as ndarray.mean computes it
            slope *= h_eff * theta * (1.0 - theta)
            y_grid += slope
            sample = _end_state(kernel, grid_state, kernel.k2, last)
            if isinstance(sample, str) or sample[1] < energy_new - kernel.cushion:
                skipped += 1
                continue
            record(t_grid, y_grid, sample)
            last = sample[1]
            on_grid += 1
        t = t_new
        kernel.accept()
        end = new_end
        v, energy, grad_norm, _ = end
        accepted += 1
        record(t, kernel.y.flat, end)
        h = 2.0 * h_eff if error < _ROS_GROW else h_eff
    _LOG.info(
        "Rosenbrock phase ended at t=%g: %d accepted, %d rejected steps, %d W refreshes, "
        "%d velocity evaluations, %d grid samples recorded, %d skipped",
        t, accepted, rejected, refreshes, kernel.evaluations - evaluations, on_grid, skipped,
    )
    return t, end, status


def integrate(system, config0, params: FlowParams = FlowParams()) -> Trajectory:
    """Run the guarded descent flow from config0.

    Stops with status "converged" when the sup-norm velocity drops below
    grad_tol, or "truncated" at t_max.  The flow starts on adaptive RK4:
    samples are recorded at t = 0, after every record_stride-th accepted
    step, and at the final state, and a step is rejected (and dt halved)
    when it trips a structural guard or raises the energy; rejection at
    dt_min raises StepUnderflow.  An untangled system (a graph with one
    crossing sign, or a weave with two or more tangle components) switches,
    once dt has stayed at its cap for `_SWITCH_STEPS` consecutive accepted
    steps, to error-controlled ROS34PW2 steps under the same guards, each
    recorded as a sample, with samples of the interpolated flow at the
    times 10^(k / 150) between them.  Every sample keeps the planar layout
    config0.x.
    Initial states with misshapen or non-finite coordinates, violated
    crossing signs, or a non-finite energy or velocity raise InvalidInitial.
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

    with np.errstate(**_QUIET):
        kernel = _StepKernel(system, x0, np.concatenate((z_blue, z_red)), np.abs(d0), params.gap_safety)
    v, e0 = kernel.v.flat, kernel.e0
    grad_norm = float(np.maximum.reduce(np.abs(v)))
    if not (math.isfinite(e0) and math.isfinite(grad_norm)):
        raise InvalidInitial(f"initial energy {e0!r} or velocity {grad_norm!r} is not finite")

    # per tangle component, top to bottom: the vertices its barycenter sums
    if system.kind == "weave":
        members = [system._component_vertices(c) for c in tangle_decomposition(system).components]
        untangled = len(members) >= 2
    else:
        members = ()
        untangled = classify_entangled_graph(system) is Classification.UNTANGLED
    # Gershgorin bound on the stretching part 2 L of the flow Jacobian: a row
    # of 2 |L| sums to four times its vertex's degree in the family (a 1x1
    # weave has no edges); the gap repulsion adds at most 4/min_gap^3 on top
    quad_rate = 4.0 * int(np.max(np.bincount(np.concatenate(kernel.edges), minlength=2 * n)))

    def record(t, y, end):
        _, energy, grad_norm, min_gap = end
        zb, zr = y[:n], y[n:]
        samples.append(Sample(
            t=t,
            config=Configuration(x=x0, z_blue=zb, z_red=zr),
            energy=energy,
            grad_norm=grad_norm,
            min_gap=float(min_gap),
            m_blue=float(np.add.reduce(zb)) / n,
            m_red=float(np.add.reduce(zr)) / n,
            m_components=tuple(
                float(np.add.reduce(zb[blue])) + float(np.add.reduce(zr[red])) for blue, red in members
            ),
        ))

    t = 0.0
    dt = params.dt_init
    energy = e0
    end = (v, energy, grad_norm, np.minimum.reduce(np.abs(d0)))
    samples = []
    record(t, kernel.y.flat, end)
    accepted = rejected = held = 0  # held: consecutive accepted steps with dt at its cap

    with np.errstate(**_QUIET):
        while True:
            if grad_norm < params.grad_tol:
                status = "converged"
                break
            if t >= params.t_max:
                status = "truncated"
                break
            if untangled and held >= _SWITCH_STEPS:
                status = None  # the run goes on with Rosenbrock steps
                break
            dt_eff = min(dt, params.t_max - t)
            new_end = _rk4_step(kernel, dt_eff, energy)
            if isinstance(new_end, str):
                if dt_eff <= params.dt_min:
                    raise StepUnderflow(t, dt_eff)
                dt = max(dt_eff / 2.0, params.dt_min)
                rejected += 1
                held = 0
                continue
            t += dt_eff
            kernel.accept()
            end = new_end
            _, energy, grad_norm, min_gap = end
            accepted += 1
            # an overflowing gap cube is an infinite one: no repulsion limit
            stable_dt = _STABILITY_MARGIN / (quad_rate + 4.0 / float(min_gap ** 3))
            cap = min(params.dt_max, stable_dt)
            dt = max(params.dt_min, min(dt * 1.25, cap))
            held = held + 1 if dt == cap else 0
            if accepted % params.record_stride == 0:
                record(t, kernel.y.flat, end)

        if status is None:
            _LOG.info(
                "switching to Rosenbrock steps at t=%g after %d accepted, %d rejected RK4 steps",
                t, accepted, rejected,
            )
            t, end, status = _rosenbrock_phase(kernel, t, end, dt, params, record)

    if samples[-1].t < t:
        record(t, kernel.y.flat, end)
    return Trajectory(system=system, samples=tuple(samples), status=status)
