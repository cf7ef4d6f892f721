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

`integrate` takes every step in one loop.  Untangled systems never
converge: their components drift apart like t^(1/3), and RK4 would crawl
along that smooth tail at dt_max.  So once an untangled run has held dt at
its cap for `_SWITCH_STEPS` consecutive accepted steps, the loop switches to
the L-stable Rosenbrock-W method ROS34PW2 (Rang and Angermann 2005) with
step-size control from its embedded second-order estimate, in the manner of
LSODA's nonstiff-to-stiff switch; a `_Rosenbrock` made there holds that
method's state.  The loop keeps what both methods share: the convergence
and t_max tests, the halving on a rejection down to dt_min, and the counts.
ROS34PW2 is third order for any W, but its error estimate is only as good
as W = I - gamma h J is close to the current Jacobian.  So W is inverted
anew when h changes or t has doubled since it was built (the coupling
between components fades like 1/t), and reused otherwise.  Every Rosenbrock
step passes the same guards as an RK4 step, and since its steps grow to
thousands in t, the phase also records the flow on a log grid of t
(`_GRID_PER_DECADE` times per decade) from each step's cubic Hermite dense
output.  Entangled runs and runs that end before the switch (t ~ 10 on
the bundled designs) stay on RK4 throughout.

Both phases evaluate a candidate end state in one place, `_end_state`: the
guard, then the velocity there, once, which gives the sup-norm convergence
test and the next step's first stage (RK4's k1, the Rosenbrock step's v), as
in the "first same as last" Runge-Kutta pairs of Dormand and Prince (1980),
then the energy test.  An RK4 step certifies three of these checks instead
of computing them:
- the energy test: the energy is convex on the states that keep every
  crossing sign, which holds along the whole step since the guard passed at
  both of its ends, so E(y_new) <= E(y) - v_new . (y_new - y), and
  v_new . (y_new - y) >= 0 proves that the energy did not rise (the
  first-order condition of convex functions);
- the guard's finiteness test, on a system whose every height lies on a
  height edge: an infinite height makes its own 2 L z entry of v_new
  non-finite, so that dot is then no finite number;
- the convergence test, in `integrate`: a velocity of 2n entries with
  v . v >= 4n grad_tol^2 (`_speed_floor`) has a sup norm of at least
  grad_tol.
Only when the descent certificate fails are the finiteness and the energy
tested, and only when the speed floor is not reached is the sup norm
computed.  An RK4 state's energy and sup norm are therefore evaluated only
where they are read: at a recorded row, at the switch to the Rosenbrock
phase (whose steps and grid samples compare energies), and on an undecided
step; each time as the uncertified path would, so a recorded energy has the
bits `energy_entangled`/`energy_weave` give.  The guard's minimum gap sets
the RK4 stability cap on dt.  Grid samples
never steer a step, so the phase queues its accepted steps and evaluates
their grid samples a decade of t at a time, as the rows of one array, in
`_end_states`: the same guard verdict, velocity and energy, bit for bit.
Per sample, numpy dispatch on arrays of n <= 36 heights costs more than the
arithmetic.

`integrate` records each point as one row: its time, a copy of its stacked
heights, and its energy, velocity sup norm and minimum gap.  Once the run
ends it stacks the rows into the read-only columns of a `Trajectory` and
derives the barycenters and component sums there, row by row; a `Sample`
with its `Configuration` is built only when `Trajectory.samples` is read.
The run's exact step and evaluation counts go to `Trajectory.stats`.

Each `integrate`, `step`, `gradient` or `stationarity_residual` call builds
one `_StepKernel`, the flow's one gate: it admits a configuration that fits,
is finite, keeps every crossing sign and has a finite energy and velocity,
derives the run's constants once, counts the velocity evaluations, and
holds the buffers, with per-family views, of every stage and end state
(unless it only admits, for `gradient` or `stationarity_residual`).  The
energy functions build no kernel; they check with `_checked_heights` only.
"""
from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    GapGuardTripped,
    InvalidInitial,
    InvalidParameter,
    MismatchedVertexSet,
    NonFiniteHeights,
    StepUnderflow,
    WrongKind,
    ZeroGap,
)
from .model import Configuration, _finite, _laplacian

__all__ = [
    "FlowParams",
    "RunStats",
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

# classical RK4 (Hairer, Norsett and Wanner, Solving ODEs I, II.1) as the
# rows of its Butcher tableau: the stage states y + dt (a_i . [k1, ...]) of
# k2, k3 and k4, then the weights of y_new = y + dt (b . [k1, k2, k3, k4])
_RK4_A = np.array([
    [0.5, 0.0, 0.0, 0.0],
    [0.0, 0.5, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
])

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
# weights of the embedded error, m - m_hat, on [u_1, ..., u_4]
_ROS_GAMMAS_INV = np.linalg.inv(_ROS_GAMMAS)
_ROS_A = _ROS_ALPHA @ _ROS_GAMMAS_INV
_ROS_GC = -_ROS_GAMMA * np.tril(_ROS_GAMMAS_INV, -1)
_ROS_ERROR = (_ROS_B - _ROS_B_HAT) @ _ROS_GAMMAS_INV
# as rows over [y, u_1, ...]: the stage states [1, a_i1, ..., a_i,i-1] of
# stages 2 to 4, and the update [1, m_1, ..., m_4]
_ROS_STAGE_ROWS = tuple(np.concatenate(([1.0], _ROS_A[i, :i])) for i in range(1, 4))
_ROS_UPDATE = np.concatenate(([1.0], _ROS_B @ _ROS_GAMMAS_INV))

# the Rosenbrock phase also records the flow at t = 10^(k / N) for every
# integer k, from the dense output of the step that spans it, so that a
# power-law fit window [t_max / 10, t_max] holds enough samples however
# long the steps grow
_GRID_PER_DECADE = 150

_LOG = logging.getLogger("tangleflow")


def _real(value) -> bool:
    """Whether value is a number that a step size or tolerance may be: an int
    or float, or a numpy integer or floating scalar, but not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


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
        for name in ("dt_min", "dt_init", "dt_max"):
            if not _real(value := getattr(self, name)):  # as `step` rejects dt=True or None
                raise InvalidParameter(f"{name} must be an int or float, got {value!r}")
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
        for name in ("t_max", "grad_tol"):
            if not (_real(value := getattr(self, name)) and value > 0 and _finite(value)):
                raise InvalidParameter(f"{name} must be positive and finite, got {value!r}")
        if not (_real(self.gap_safety) and 0.0 < self.gap_safety < 1.0):
            raise InvalidParameter(
                f"gap_safety must lie strictly between 0 and 1, got {self.gap_safety!r}"
            )
        stride = self.record_stride
        if isinstance(stride, bool) or not (isinstance(stride, int) and stride >= 1):
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
class RunStats:
    """Exact counts of one `integrate` run: accepted and rejected steps of
    each method, Rosenbrock W refreshes, velocity evaluations (the run's
    `_StepKernel.evaluations`: states whose velocity was evaluated, one per
    `_velocity` call and one per grid sample evaluated in a batch), and the
    grid samples of the Rosenbrock phase recorded and skipped.  A run that
    never switches has zero Rosenbrock counts."""

    rk4_accepted: int
    rk4_rejected: int
    velocity_evaluations: int
    ros_accepted: int = 0
    ros_rejected: int = 0
    w_refreshes: int = 0
    grid_recorded: int = 0
    grid_skipped: int = 0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The recorded points of one integration run, as read-only columns of
    S rows: the times `t`; the stacked heights `heights` (S, 2n), each row
    [z_blue; z_red]; `energy`, `grad_norm` (the velocity's sup norm) and
    `min_gap`; the family barycenters `m_blue` and `m_red`; and
    `m_components` (S, K), the summed heights of each tangle component, top
    to bottom (K = 0 for a graph).  Every point keeps the planar layout `x`.
    `stats` holds the run's exact counts.  `samples` holds the same points
    as `Sample`s, built on first access."""

    system: object
    status: str  # "converged" or "truncated"
    x: np.ndarray
    t: np.ndarray
    heights: np.ndarray
    energy: np.ndarray
    grad_norm: np.ndarray
    min_gap: np.ndarray
    m_blue: np.ndarray
    m_red: np.ndarray
    m_components: np.ndarray
    stats: RunStats

    def configuration(self, index=-1) -> Configuration:
        """The recorded configuration at row index."""
        n = self.heights.shape[1] // 2
        y = self.heights[index]
        return Configuration(x=self.x, z_blue=y[:n], z_red=y[n:])

    @functools.cached_property
    def samples(self) -> tuple:
        """The recorded points as `Sample`s, built on first access."""
        columns = (self.t, self.energy, self.grad_norm, self.min_gap, self.m_blue, self.m_red, self.m_components)
        return tuple(
            Sample(t, self.configuration(i), energy, grad_norm, min_gap, m_blue, m_red, tuple(m))
            for i, (t, energy, grad_norm, min_gap, m_blue, m_red, m) in enumerate(
                zip(*(column.tolist() for column in columns))
            )
        )


def _checked_heights(system, config) -> tuple:
    """The stacked heights [z_blue; z_red] and signed gaps z_blue - z_red of
    a config that fits the system, is finite and whose heights never touch."""
    n = system.n_vertices
    zb, zr = config.z_blue, config.z_red
    if zb.shape != (n,) or zr.shape != (n,):
        raise MismatchedVertexSet(
            f"height arrays must have shape ({n},), got {zb.shape} and {zr.shape}"
        )
    if config.x.shape != (n, 2):
        raise MismatchedVertexSet(f"planar coordinates must have shape ({n}, 2), got {config.x.shape}")
    if not (np.all(np.isfinite(zb)) and np.all(np.isfinite(zr))):
        raise NonFiniteHeights("heights must be finite")
    if not np.all(np.isfinite(config.x)):
        raise NonFiniteHeights("planar coordinates must be finite")
    d = zb - zr
    zero = np.nonzero(d == 0.0)[0]
    if zero.size:
        raise ZeroGap(int(zero[0]))
    return np.concatenate((zb, zr)), d


def _planar_term(system, x) -> float:
    """The planar energy of the layout x: the system's cached
    `planar_energy` when x is its own layout, the same value bit for bit."""
    if np.array_equal(x, system.planar_x):
        return system.planar_energy
    return system.planar_term(x)


def _total_energy(system, config) -> float:
    y, d = _checked_heights(system, config)
    return _energy(_stacked_edges(system), y, np.abs(d, out=d), _planar_term(system, config.x))


def energy_entangled(system, config) -> float:
    """Energy of a quotient-graph realization."""
    if system.kind != "entangled-graph":
        raise WrongKind(f"expected an entangled-graph system, got kind={system.kind!r}")
    return _total_energy(system, config)


def energy_weave(system, config) -> float:
    """Energy of a weave realization."""
    if system.kind != "weave":
        raise WrongKind(f"expected a weave system, got kind={system.kind!r}")
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
    and `blue_dots` and `red_dots`, the same for a stack of states along a
    leading axis, equal to them row for row bit for bit (a batched matmul,
    not `np.dot`, whose 3-D products round differently).
    A graph multiplies by its doubled dense Laplacian, which both families
    share.  A weave holds no n x n matrix: its family Laplacians are
    L_B = I (x) C_{n_red} and L_R = C_{n_blue} (x) I, with C_m the
    Laplacian of one thread cycle of m crossings, so on the (n_blue, n_red)
    vertex grid 2 L_B z is Z_b (2 C_{n_red}) and 2 L_R z is (2 C_{n_blue})
    Z_r.  Only `_jacobian` forms the dense blocks, from the stacked edges.
    Doubling is exact, so (2 L) z equals 2 (L z) bit for bit.

    Run constants, derived here only, from the `Configuration` config that
    the kernel admits as the flow's start: `_checked_heights` raises on a
    misshapen or non-finite config or touching heights, and InvalidInitial
    on a violated crossing sign or a start energy or velocity that is not
    finite.  They are its stacked heights and velocity in `y` and `v`, its
    layout's planar term `x_term`, from its energy e0 the `gap_floor`
    gap_safety / e0 and the `cushion` _ENERGY_CUSHION |e0|, and the `start`,
    an `_end_state`: (v, e0, the sup norm of v, the minimum gap).  A
    stepping kernel also derives, from the stacked edges' degree count, the
    `quad_rate` of `integrate`'s stability cap and `sum_test`, whether some
    height lies on no height edge (a 1 x m or m x 1 weave, a one-vertex
    graph), so that its end states keep the guard's height-sum test; and
    from grad_tol the `speed_floor` (`_speed_floor`; NaN with no grad_tol).
    `evaluations` counts the states whose velocity is evaluated: one per
    `_velocity` call and one per row that `_end_states` evaluates.

    Buffers, each a `_Heights` but for the last four, reused by every step
    of a run: the accepted state `y` and its velocity `v`, and the
    repulsion, which admission fills; and the step buffers, which a kernel
    made with stepping=False (`gradient`, `stationarity_residual`) does not
    build: the candidate end state `y_new` and its velocity `v_new`; the
    stage state `stage` and the RK4 stage velocities `k2`, `k3`, `k4`; the
    Rosenbrock row block `ros`, below; the absolute gaps `gaps`, with their
    view `gap_view` in the families' shape; and scratch rows.

    An RK4 step is the tableau `_RK4_A` applied to rows.  A stepping kernel
    holds one (2, 5, 2n) block, a (5, 2n) row block [y, k1 = v, k2, k3, k4]
    per parity: `y`, `v`, `k2`, `k3` and `k4` are the rows of the current
    parity, and `y_new` and `v_new` the first two rows of the other, so
    `accept` swaps the parities, in `parities`, and with them every one of
    these views.  Each parity also binds its row `heads`: rows[:2],
    rows[:3] and rows[:4], which stages 2 to 4 read, and rows[1:], the four
    stage velocities.  The (4, 5) `tableau` holds a coefficient row per
    head: column 0 is [1, 1, 1, 0], the weight of y, and the rest is
    dt _RK4_A; it is refilled, through its flat view `tableau_flat`, only
    when a step's dt differs from that of the step before, `dt`.  So each
    stage state, and the step's increment dt (b . [k1, k2, k3, k4]), is one
    row-times-head product (`ndarray.dot`, a BLAS gemv, whose rounding
    depends on the BLAS build).

    A Rosenbrock step (`_ros_step`) is row products too, over the (6, 2n)
    block `ros` with rows [f, y, u_1, u_2, u_3, u_4]: `f`, a `_Heights` over
    row 0, holds each stage velocity, row 1 a copy of the step's start y,
    and rows 2 to 5 the stages u_i.  Stage i + 1 reads the state
    `_ROS_STAGE_ROWS[i - 1]` . [y, u_1, ..., u_i] and, after its velocity f,
    the right-hand side [gamma h, 0, gc_i1, ..., gc_ii] . [f, y, u_1, ...,
    u_i]; the step is `_ROS_UPDATE` . [y, u_1, ..., u_4] and its error
    `_ROS_ERROR` . [u_1, ..., u_4].  The one zero weight, of each
    right-hand side, falls on y, a finite accepted state: f and the u rows
    can hold NaN from a failed attempt, and 0 NaN is NaN.  The (3, 5)
    `ros_rhs` holds those three right-hand-side rows; its column 0 is
    refilled only when gamma h differs from the last step's, `gamma_h` (h
    only doubles, halves or is clipped at t_max).  `ros_stages` binds, per
    stage, its two coefficient rows, the row heads they read and its u row.
    `_jacobian` caches the dense 2 L it copies, with its diagonal indices,
    in `dense` at its first call, so that a run that never switches builds
    no n x n matrix."""

    def __init__(self, system, config, gap_safety=FlowParams.gap_safety, grad_tol=None, stepping=True):
        self.n = n = system.n_vertices
        if system.kind == "weave":
            shape = system._grid.shape
            two_nb, two_nr = (2.0 * c for c in system._thread_cycles)
            self.blue_dot = lambda z, out: z.dot(two_nr, out)
            self.red_dot = two_nb.dot
            self.blue_dots = lambda z, out: np.matmul(z, two_nr, out=out)
            self.red_dots = lambda z, out: np.matmul(two_nb, z, out=out)
        else:
            shape = (n,)
            two_l = 2.0 * system.laplacian
            self.blue_dot = self.red_dot = two_l.dot
            self.blue_dots = self.red_dots = lambda z, out: np.matmul(two_l, z[..., None], out=out[..., None])
        self.sign = system.sign.astype(float).reshape(shape)
        self.edges = _stacked_edges(system)
        block = np.empty((2, 5, 2 * n) if stepping else (1, 2, 2 * n))
        self.y, self.v = map(_Heights, block[0, :2], block[0, :2].reshape((2, 2) + shape))
        self.repulsion = np.empty(shape)
        self.evaluations = 0
        self.y.flat[:], gaps = _checked_heights(system, config)
        gaps *= self.sign.reshape(n)  # positive exactly where the crossing sign holds, so |d|
        min_gap = np.minimum.reduce(gaps)
        if not min_gap > 0.0:
            flipped = np.argmax(gaps < 0.0)
            raise InvalidInitial(f"initial heights violate the crossing sign at vertex {flipped}")
        with np.errstate(**_QUIET):
            self.x_term = _planar_term(system, config.x)
            e0 = _energy(self.edges, self.y.flat, gaps, self.x_term)
            v = _velocity(self, self.y, self.v).flat
            grad_norm = _sup_norm(v)
        if not (math.isfinite(e0) and math.isfinite(grad_norm)):
            raise InvalidInitial(f"initial energy {e0!r} or velocity {grad_norm!r} is not finite")
        self.gap_floor = gap_safety / e0
        self.cushion = _ENERGY_CUSHION * abs(e0)
        self.start = (v, e0, grad_norm, min_gap)
        if not stepping:
            return
        # a row of 2 |L| sums to four times its height's degree in the family
        # (a 1x1 weave has no edges): the Gershgorin bound on the stretching
        # part of the flow Jacobian; the gap repulsion adds at most
        # 4/min_gap^3 on top
        degree = np.bincount(np.concatenate(self.edges), minlength=2 * n)
        self.quad_rate = 4.0 * int(np.max(degree))
        self.sum_test = not degree.all()
        self.speed_floor = _speed_floor(2 * n, grad_tol)
        self.parities = [
            (*map(_Heights, rows, rows.reshape((5, 2) + shape)), (rows[:2], rows[:3], rows[:4], rows[1:]))
            for rows in block
        ]
        self._bind()
        self.tableau = tableau = np.zeros((4, 5))
        self.tableau_flat = tableau.reshape(20)
        tableau[:3, 0] = 1.0
        self.tableau_rows = (tableau[0, :2], tableau[1, :3], tableau[2, :4], tableau[3, 1:])
        self.dt = math.nan  # no step yet: the first fills the tableau
        stage = np.empty(2 * n)
        self.stage = _Heights(stage, stage.reshape((2,) + shape))
        self.ros = ros = np.empty((6, 2 * n))
        self.f = _Heights(ros[0], ros[0].reshape((2,) + shape))
        self.ros_rhs = rhs = np.zeros((3, 5))
        for i in range(1, 4):
            rhs[i - 1, 2:2 + i] = _ROS_GC[i, :i]
        self.ros_stages = tuple(
            (_ROS_STAGE_ROWS[i - 1], ros[1:2 + i], rhs[i - 1, :2 + i], ros[:2 + i], ros[2 + i]) for i in range(1, 4)
        )
        self.gamma_h = math.nan  # no Rosenbrock step yet: the first fills column 0
        self.dense = None  # `_jacobian`'s (2 L, blue diagonal, red diagonal), from its first call
        self.gaps = np.empty(n)
        self.gap_view = self.gaps.reshape(shape)
        self.scratch = tuple(np.empty((2, 2 * n)))

    def accept(self):
        """Make the candidate end state and its velocity the accepted ones:
        the two parities of the row block trade places."""
        self.parities.reverse()
        self._bind()

    def _bind(self):
        """Point the row views at the current parity, `parities[0]`."""
        (self.y, self.v, self.k2, self.k3, self.k4, self.heads), idle = self.parities
        self.y_new, self.v_new = idle[:2]


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
    height energy.  A fresh matrix: the dense 2 L, built from the stacked
    edges at the kernel's first call and cached in its `dense`, is copied."""
    n = kernel.n
    if kernel.dense is None:
        two_l = _laplacian(*kernel.edges, 2 * n)
        two_l *= 2.0
        blue = np.arange(n)
        kernel.dense = (two_l, blue, blue + n)
    two_l, blue, red = kernel.dense
    d = np.abs(y[:n] - y[n:])
    D = 2.0 / (d * d * d)
    J = two_l.copy()
    J[blue, blue] -= D
    J[red, red] -= D
    J[blue, red] = D
    J[red, blue] = D
    return J


def gradient(system, config):
    """Descent direction (v_blue, v_red) of the height flow at config, which
    must be a state the flow admits (`_StepKernel`): one whose energy
    overflows raises InvalidInitial even if its velocity is finite."""
    v = _StepKernel(system, config, stepping=False).start[0]
    return v[: system.n_vertices], v[system.n_vertices:]


def stationarity_residual(system, config) -> float:
    """Sup norm of the descent velocity; zero exactly at stationary points.
    It admits config as `gradient` does."""
    return _StepKernel(system, config, stepping=False).start[2]


def _guard_reason(kernel, y, gap_floor, sum_test=True):
    """Why the stacked heights in the `_Heights` y are structurally
    unacceptable, as a string; when they are acceptable, their absolute gaps
    |z_blue - z_red| (the kernel's `gaps`) and the minimum gap instead.
    With sum_test False, heights whose signed gaps all reach the floor pass
    without the height-sum test of finiteness, which the caller, an RK4
    `_end_state`, then certifies or runs itself."""
    gaps = kernel.gaps
    signed = np.subtract(y.blue, y.red, out=kernel.gap_view)
    signed *= kernel.sign  # positive exactly where the crossing sign holds
    min_gap = np.minimum.reduce(gaps)
    # every signed gap at or above the floor (false for NaN) and a finite sum
    # (false for any inf or NaN entry) imply that all the checks below pass;
    # the signed gaps are then the absolute ones
    if min_gap >= gap_floor and (not sum_test or math.isfinite(np.add.reduce(y.flat))):
        return gaps, min_gap
    if not np.all(np.isfinite(y.flat)):
        return "non-finite heights"
    if not min_gap > 0.0:  # finite heights have no NaN gap
        return "crossing sign flipped"
    if min_gap < gap_floor:
        return f"minimum gap fell below the floor {gap_floor:.3e}"
    return gaps, min_gap  # only the sum overflowed; the signs hold, so these are |d|


def _end_state(kernel, y, v, reference, step=None):
    """Evaluate the candidate end state of a step, the `_Heights` y: the
    guard at the kernel's gap floor, then, if it passes, the velocity there,
    once, into the `_Heights` v, from the guard's gaps.  Returns why y is
    rejected, as a string, or (v.flat, energy, grad_norm, min_gap): the
    velocity (the next step's k1), the energy (`_energy`), the sup norm of v
    (`_sup_norm`) and the minimum gap.  The state is also rejected when its
    energy exceeds reference by more than the kernel's cushion (or is NaN).

    An RK4 step passes its increment y - y_start as step, and three checks
    are certified instead where they can be:
    - the energy test: on the sign-feasible set, where every signed gap is
      positive, the energy is convex, so E(y) <= E(y_start) - v . step, and
      the guard has passed at both ends of the straight segment between
      them, along which every signed gap is linear.  So v . step >= 0 (and
      finite) proves that the energy did not rise, up to the rounding of
      y_start + step, far below the cushion; the end state is then accepted
      with its energy unevaluated, None;
    - finiteness, unless the kernel's `sum_test` holds: the guard skips its
      height-sum test, since an infinite height on a height edge makes its
      own entry of v non-finite, and so v . step no finite number;
    - the sup norm: on a certified step with v . v at or above the kernel's
      `speed_floor`, it is at least grad_tol and left unevaluated, None.
    When the descent certificate fails (a negative dt, an overshooting step,
    a NaN), heights the guard did not sum are tested for finiteness
    ("non-finite heights", as the guard would say), and the energy is
    evaluated and tested as above; a reference of None, an unevaluated
    energy, is then evaluated at the kernel's accepted state `y`, the
    step's start."""
    sum_test = step is None or kernel.sum_test
    guard = _guard_reason(kernel, y, kernel.gap_floor, sum_test)
    if isinstance(guard, str):
        return guard
    gaps, min_gap = guard
    velocity = _velocity(kernel, y, v, kernel.gap_view).flat
    if step is not None and 0.0 <= velocity.dot(step) < math.inf:
        if velocity.dot(velocity) >= kernel.speed_floor:
            return velocity, None, None, min_gap
        energy = None
    else:
        if not (sum_test or np.isfinite(y.flat).all()):
            return "non-finite heights"
        energy = _energy(kernel.edges, y.flat, gaps, kernel.x_term)
        if reference is None:
            reference = _energy_at(kernel, kernel.y)
        if not energy <= reference + kernel.cushion:
            return "energy increased"
    return velocity, energy, _sup_norm(velocity, kernel.scratch[0]), min_gap


def _sup_norm(v, out=None) -> float:
    """The sup norm of the flat velocity v, with |v| written into out."""
    return float(np.maximum.reduce(np.abs(v, out=out)))


def _speed_floor(size, grad_tol) -> float:
    """The v . v at or above which a velocity of size entries has a sup norm
    of at least grad_tol: 2 size grad_tol^2.  A sup norm below grad_tol
    gives v . v < size grad_tol^2, and the factor 2 covers the rounding of
    the dot and of the floor itself while grad_tol^2 is a normal float and
    the floor is finite.  Otherwise, and with no grad_tol, NaN, which no
    v . v reaches."""
    if grad_tol is None:
        return math.nan
    tol = float(grad_tol)
    square = tol * tol
    floor = 2.0 * size * square
    return floor if square >= sys.float_info.min and floor < math.inf else math.nan


def _energy_at(kernel, y):
    """The energy of the `_Heights` y, a state that passed the guard, from
    its |d| recomputed as `_guard_reason` computes them: the same bits as
    the energy `_end_state` evaluates there.  Overwrites the kernel's
    `gaps`."""
    signed = np.subtract(y.blue, y.red, out=kernel.gap_view)
    signed *= kernel.sign
    return _energy(kernel.edges, y.flat, kernel.gaps, kernel.x_term)


def _evaluated(kernel, y, end):
    """The `_end_state` end of the `_Heights` y with the energy
    (`_energy_at`) and the velocity's sup norm that a certified RK4 step
    left unevaluated, None, filled in."""
    velocity, energy, grad_norm, min_gap = end
    if energy is None:
        energy = _energy_at(kernel, y)
    if grad_norm is None:
        grad_norm = _sup_norm(velocity, kernel.scratch[0])
    return velocity, energy, grad_norm, min_gap


def _end_states(kernel, heights, gap_floor):
    """Evaluate the stacked heights in the C-ordered rows of heights, (G, 2n),
    at once, bit for bit as `_end_state` evaluates each, but with no energy
    reference: the guard, every height finite and every signed gap at or
    above gap_floor (positive), which is `_guard_reason`'s verdict row for
    row, then, for the rows that pass it, the velocity, the energy, the
    velocity's sup norm and the minimum gap.  Returns (passed, energy,
    grad_norm, min_gap): the boolean mask of the rows that pass and, for
    them alone, in order, the three arrays of values.  Each passing row
    counts as one velocity evaluation in the kernel's `evaluations`.

    Every reduction runs along a C-ordered row, which sums as the 1-D
    reduction does, and every product is a batched matmul (see
    `_StepKernel`): a gather from a column slice or a 3-D `np.dot` would
    round differently."""
    n = kernel.n
    sign = kernel.sign.reshape(n)
    gaps = np.subtract(heights[:, :n], heights[:, n:])
    gaps *= sign  # positive exactly where the crossing sign holds
    min_gap = np.minimum.reduce(gaps, axis=1)
    passed = min_gap >= gap_floor
    passed &= np.isfinite(heights).all(axis=1)
    if not passed.all():
        heights, gaps, min_gap = heights[passed], gaps[passed], min_gap[passed]
    count = len(heights)
    kernel.evaluations += count
    shape = (count,) + kernel.sign.shape
    repulsion = np.multiply(gaps, gaps)
    np.divide(sign, repulsion, out=repulsion)
    repulsion = repulsion.reshape(shape)
    z = heights.reshape((count, 2) + kernel.sign.shape)
    velocity = np.empty_like(z)
    kernel.blue_dots(z[:, 0], velocity[:, 0])
    velocity[:, 0] += repulsion
    kernel.red_dots(z[:, 1], velocity[:, 1])
    velocity[:, 1] -= repulsion
    grad_norm = np.maximum.reduce(np.abs(velocity.reshape(count, 2 * n)), axis=1)
    u, v = kernel.edges
    d = np.take(heights, u, axis=1)
    d -= np.take(heights, v, axis=1)
    energy = np.matmul(d[:, None, :], d[:, :, None]).reshape(count)
    energy += kernel.x_term
    energy += np.add.reduce(np.reciprocal(gaps, out=gaps), axis=1)
    return passed, energy, grad_norm, min_gap


def _rk4_step(kernel, dt, energy):
    """One Runge-Kutta step of size dt from the kernel's accepted state `y`,
    whose velocity `v` is k1 and whose energy is energy (None if it was left
    unevaluated), to its candidate `y_new`, each stage state and the
    increment one tableau row times a row head of the kernel's block (see
    `_StepKernel`).  Returns the `_end_state` of `y_new`, whose velocity
    goes to `v_new`, with the step's increment, held in a scratch row, for
    its certificates: an accepted end state carries the energy None when the
    certificate proved its descent, and the evaluated energy when the
    fallback test passed, and the sup norm None when its speed floor proved
    it."""
    if dt != kernel.dt:
        # the nonzero entries of dt _RK4_A, as the same float products
        kernel.dt, dt, tableau = dt, float(dt), kernel.tableau_flat
        tableau[1] = tableau[7] = 0.5 * dt
        tableau[13] = dt
        tableau[16] = tableau[19] = (1.0 / 6.0) * dt
        tableau[17] = tableau[18] = (1.0 / 3.0) * dt
    second, third, fourth, weights = kernel.tableau_rows
    two, three, four, velocities = kernel.heads
    stage = kernel.stage
    second.dot(two, stage.flat)
    _velocity(kernel, stage, kernel.k2)
    third.dot(three, stage.flat)
    _velocity(kernel, stage, kernel.k3)
    fourth.dot(four, stage.flat)
    _velocity(kernel, stage, kernel.k4)
    increment = weights.dot(velocities, kernel.scratch[1])
    np.add(kernel.y.flat, increment, out=kernel.y_new.flat)
    return _end_state(kernel, kernel.y_new, kernel.v_new, energy, increment)


def step(system, config, dt) -> Configuration:
    """One guarded Runge-Kutta step of size dt: the step `integrate` takes.

    The end state must keep finite heights and every crossing sign, no gap
    may fall below the default gap_safety divided by the energy at the input
    configuration, and the energy may not rise beyond the integrator's
    rounding cushion.  Otherwise GapGuardTripped is raised.  A dt that is
    not positive and finite raises InvalidParameter, as `FlowParams` does
    for its step sizes.  The input is admitted as `gradient`'s is: one that
    violates a crossing sign or whose energy or velocity is not finite
    raises InvalidInitial.
    """
    if not _real(dt):
        raise InvalidParameter(f"dt must be an int or float, got {dt!r}")
    if not (dt > 0 and _finite(dt)):  # also rejects NaN
        raise InvalidParameter(f"dt must be positive and finite, got {dt!r}")
    kernel = _StepKernel(system, config)
    with np.errstate(**_QUIET):
        end = _rk4_step(kernel, dt, kernel.start[1])
    if isinstance(end, str):
        raise GapGuardTripped(f"step of size {dt!r} rejected: {end}")
    n = system.n_vertices
    y_new = kernel.y_new.flat
    return Configuration(x=config.x, z_blue=y_new[:n], z_red=y_new[n:])


def _ros_step(kernel, h, w_inv):
    """One ROS34PW2 step of size h from the kernel's accepted state `y`,
    whose velocity is `v`, to its candidate `y_new`, where w_inv is
    W^-1 = (I - gamma h J)^-1 for some approximation J of the Jacobian; each
    stage state, right-hand side, the end state and the error are row
    products over the kernel's block `ros` (see `_StepKernel`), and only
    u_2..u_4 evaluate the velocity, into `f`.  Returns `y_new` and the
    embedded error estimate, a vector."""
    ros, f, stage, (rhs, error) = kernel.ros, kernel.f, kernel.stage, kernel.scratch
    gamma_h = _ROS_GAMMA * h
    if gamma_h != kernel.gamma_h:
        kernel.ros_rhs[:, 0] = kernel.gamma_h = gamma_h
    np.copyto(ros[1], kernel.y.flat)
    np.multiply(kernel.v.flat, gamma_h, rhs)
    w_inv.dot(rhs, ros[2])
    for row, states, rhs_row, rhs_rows, u in kernel.ros_stages:
        row.dot(states, stage.flat)
        _velocity(kernel, stage, f)
        rhs_row.dot(rhs_rows, rhs)
        w_inv.dot(rhs, u)
    y_new = kernel.y_new
    _ROS_UPDATE.dot(ros[1:], y_new.flat)
    return y_new, _ROS_ERROR.dot(ros[2:], error)


def _record_steps(kernel, steps, record):
    """Record the queued accepted steps of a `_Rosenbrock` phase in time
    order: each step's grid samples, then the step itself.  A step is
    (t, h, grid times, y, y_new, v, v_new, energy, end): its start time and
    size, the grid times strictly inside it, copies of its end states and
    their velocities, its start energy and the `_end_state` of y_new.  The
    grid states of all the steps are interpolated at once, as (G, 2n) rows,
    and `_end_states` evaluates them at once; then the phase's skip rule is
    replayed row by row on the rows that pass its guard.
    Returns the numbers of grid samples recorded and skipped."""
    spans = [step for step in steps if step[2]]
    recorded = skipped = 0
    if spans:
        starts, sizes, times, *states = list(zip(*spans))[:7]
        counts = list(map(len, times))
        starts, sizes = (np.repeat(column, counts)[:, None] for column in (starts, sizes))
        y, y_new, v, v_new = (np.repeat(state, counts, axis=0) for state in states)
        theta = (np.concatenate(times)[:, None] - starts) / sizes
        rest = 1.0 - theta
        # cubic Hermite: the weights on y and y_new sum to 1 and the velocity
        # term sums to zero (its mean is only rounding, which h would
        # amplify), so the barycenter holds
        heights = np.subtract(y_new, y)
        heights *= theta * theta * (3.0 - 2.0 * theta)
        heights += y
        slope = np.multiply(v, rest)
        slope -= np.multiply(v_new, theta, out=v_new)
        slope -= (np.add.reduce(slope, axis=1) / (2 * kernel.n))[:, None]  # as ndarray.mean computes it
        slope *= sizes * theta * rest
        heights += slope
        passed, *values = _end_states(kernel, heights, kernel.gap_floor)
        evaluated = zip(*(column.tolist() for column in values))
        rows = zip(heights, passed.tolist())
    for t, h, times, _, y_new, _, _, energy, end in steps:
        last = energy
        for t_grid in times:
            row, ok = next(rows)
            if ok:
                sample = (None, *next(evaluated))
                if end[1] - kernel.cushion <= sample[1] <= last + kernel.cushion:
                    record(t_grid, row, sample)
                    last = sample[1]
                    recorded += 1
                    continue
            skipped += 1
        record(t + h, y_new, end)
    return recorded, skipped


class _Rosenbrock:
    """The Rosenbrock phase of one run, made by `integrate`'s loop when it
    switches at time t after accepted and rejected RK4 steps: the counts at
    the switch, W^-1 = (I - gamma h J)^-1, the grid index, and the queued
    steps and recorded batches of grid samples.

    A step is rejected when its error estimate exceeds the tolerance (before
    its end state is evaluated), it trips a structural guard, or its energy
    exceeds the last accepted one by more than the kernel's cushion; h
    doubles after a step well inside the tolerance.  W is refreshed, from
    the Jacobian at the current state, when h changes or t has doubled since
    the last refresh; the doubling keeps W near the Jacobian as the coupling
    between components fades like 1/t, for O(log t) refreshes.
    record(t, y, end) is called on every accepted step and, before it, at
    each grid time 10^(k / _GRID_PER_DECADE) strictly inside the step, on
    the cubic Hermite interpolant of the step's end states and velocities;
    it reads end[1:], the energy, velocity sup norm and minimum gap.  A grid
    state is skipped, not recorded, when it trips a guard, its energy
    exceeds the previous state's by more than the cushion, or it lies more
    than the cushion below the step end's.  The grid states are evaluated in
    batches, which never steer the steps: accepted steps queue up, and
    `_record_steps` records them once they span `_GRID_PER_DECADE` grid
    times, about a decade of t, and when the run ends."""

    def __init__(self, kernel, record, t, accepted, rejected):
        _LOG.info(
            "switching to Rosenbrock steps at t=%g after %d accepted, %d rejected RK4 steps", t, accepted, rejected
        )
        self.kernel, self.record, self.switch = kernel, record, (accepted, rejected, kernel.evaluations)
        self.h_w = self.t_w = None  # the step size and time W^-1 was built for
        self.steps, self.batches, self.refreshes, self.queued = [], [], 0, 0
        # an index below every grid time after t, whatever the rounding of log10
        self.grid = math.floor(_GRID_PER_DECADE * math.log10(t)) - 1

    def attempt(self, t, h, energy):
        """One ROS34PW2 step of size h from time t and the kernel's accepted
        state, of energy energy, whose scaled error estimate stays in `error`:
        why it is rejected, as a string, or the `_end_state` of `y_new`."""
        kernel = self.kernel
        y = kernel.y.flat
        if h != self.h_w or t >= 2.0 * self.t_w:
            W = _jacobian(kernel, y)
            W *= -_ROS_GAMMA * h
            W.flat[:: 2 * kernel.n + 1] += 1.0
            self.w_inv = np.linalg.inv(W)
            # 1^T J = 0 gives 1^T W^-1 = 1^T, and every right-hand side below
            # sums to zero but for the rounding of its velocity, which a long
            # step would carry into the barycenter: project each u onto the
            # zero-sum states by giving every column of W^-1 zero mean (the
            # bits of ndarray.mean)
            self.w_inv -= np.add.reduce(self.w_inv, axis=0) / (2 * kernel.n)
            self.h_w, self.t_w = h, t
            self.refreshes += 1
        y_new, error = _ros_step(kernel, h, self.w_inv)
        # a non-finite stage makes the error NaN, which fails the test below
        self.error = float(np.maximum.reduce(np.abs(error, out=error)))
        self.error /= _ROS_TOL * max(1.0, float(np.maximum.reduce(np.abs(y, out=kernel.scratch[0]))))
        if not self.error <= 1.0:
            return "error estimate above tolerance"
        return _end_state(kernel, y_new, kernel.v_new, energy)

    def queue(self, t, h, energy, end):
        """Queue the accepted step of size h from time t, before the kernel
        accepts it, with its start energy and the `_end_state` of its end;
        record the queue once it spans a batch of grid times.  Returns the
        next step size."""
        kernel = self.kernel
        times = []
        while (t_grid := 10.0 ** ((self.grid + 1) / _GRID_PER_DECADE)) < t + h:
            self.grid += 1
            if t_grid > t:
                times.append(t_grid)
        states = (kernel.y.flat, kernel.y_new.flat, kernel.v.flat, end[0])
        self.steps.append((t, h, times, *map(np.ndarray.copy, states), energy, end))
        self.queued += len(times)
        if self.queued >= _GRID_PER_DECADE:
            self.batches.append(_record_steps(kernel, self.steps, self.record))
            self.steps, self.queued = [], 0
        return 2.0 * h if self.error < _ROS_GROW else h

    def finish(self, t, accepted, rejected) -> RunStats:
        """Record the queued steps of the run, which ended at time t after
        accepted and rejected steps of both methods, and return its
        `RunStats`."""
        self.batches.append(_record_steps(self.kernel, self.steps, self.record))
        rk4_accepted, rk4_rejected, at_switch = self.switch
        stats = RunStats(
            rk4_accepted, rk4_rejected, self.kernel.evaluations, accepted - rk4_accepted, rejected - rk4_rejected,
            self.refreshes, *map(sum, zip(*self.batches)),
        )
        _LOG.info(
            "Rosenbrock phase ended at t=%g: %d accepted, %d rejected steps, %d W refreshes, "
            "%d velocity evaluations, %d grid samples recorded, %d skipped",
            t, stats.ros_accepted, stats.ros_rejected, stats.w_refreshes,
            stats.velocity_evaluations - at_switch, stats.grid_recorded, stats.grid_skipped,
        )
        return stats


def integrate(system, config0, params: FlowParams = FlowParams()) -> Trajectory:
    """Run the guarded descent flow from config0.

    Stops with status "converged" at the end of the first step whose end
    velocity tests below grad_tol in sup norm, or "truncated" at t_max; an
    RK4 step whose v . v reaches 4n grad_tol^2 skips that test, since its
    sup norm is then at least grad_tol, and only recorded rows evaluate
    it.  One
    loop takes every step, clipped to t_max; a step is rejected (and its size
    halved) when it trips a structural guard or raises the energy, and
    rejection at dt_min raises StepUnderflow.  The flow starts on adaptive
    RK4, with samples recorded at t = 0, after every record_stride-th
    accepted step, and at the final state.  An untangled system (a graph with
    one crossing sign, or a weave with two or more tangle components)
    switches, once dt has stayed at its cap for `_SWITCH_STEPS` consecutive
    accepted steps, to error-controlled ROS34PW2 steps (`_Rosenbrock`), each
    recorded as a sample, with samples of the interpolated flow at the times
    10^(k / 150) between them; these never end a run, so in a run converging
    there, one can already read below grad_tol.  Every sample keeps config0.x.
    Initial states with misshapen or non-finite coordinates, violated
    crossing signs, or a non-finite energy or velocity raise InvalidInitial.
    """
    n = system.n_vertices
    try:
        kernel = _StepKernel(system, config0, params.gap_safety, params.grad_tol)
    except (MismatchedVertexSet, NonFiniteHeights, ZeroGap) as exc:
        raise InvalidInitial(f"unusable initial state: {exc}") from None

    untangled = len(system._components) >= 2

    # one row per recorded point: its time, heights and (energy, grad_norm,
    # min_gap)
    times, rows, diagnostics = [], [], []

    def record(t, y, end):
        times.append(t)
        rows.append(y.copy())
        diagnostics.append(end[1:])

    t, h = 0.0, params.dt_init
    _, energy, grad_norm, _ = end = kernel.start
    record(t, kernel.y.flat, end)
    accepted = rejected = held = 0  # held: consecutive accepted RK4 steps with h at its cap
    ros = None  # the Rosenbrock phase, from the switch on

    with np.errstate(**_QUIET):
        while (grad_norm is None or not grad_norm < params.grad_tol) and t < params.t_max:
            if held >= _SWITCH_STEPS and untangled and ros is None:
                ros = _Rosenbrock(kernel, record, t, accepted, rejected)
                # the phase's steps and grid samples compare energies
                _, energy, grad_norm, _ = end = _evaluated(kernel, kernel.y, end)
            h_eff = min(h, params.t_max - t)
            new_end = _rk4_step(kernel, h_eff, energy) if ros is None else ros.attempt(t, h_eff, energy)
            if isinstance(new_end, str):
                if h_eff <= params.dt_min:
                    raise StepUnderflow(t, h_eff)
                h = max(h_eff / 2.0, params.dt_min)
                rejected += 1
                held = 0
                continue
            accepted += 1
            if ros is None:
                # an overflowing gap cube is an infinite one: no repulsion limit
                cap = min(params.dt_max, _STABILITY_MARGIN / (kernel.quad_rate + 4.0 / float(new_end[3] ** 3)))
                h = max(params.dt_min, min(h * 1.25, cap))
                held = held + 1 if h == cap else 0
                if accepted % params.record_stride == 0:
                    new_end = _evaluated(kernel, kernel.y_new, new_end)
                    record(t + h_eff, kernel.y_new.flat, new_end)
            else:
                h = ros.queue(t, h_eff, energy, new_end)
            t += h_eff
            kernel.accept()
            _, energy, grad_norm, _ = end = new_end
        status = "converged" if grad_norm is not None and grad_norm < params.grad_tol else "truncated"
        stats = RunStats(accepted, rejected, kernel.evaluations) if ros is None else ros.finish(t, accepted, rejected)
        if times[-1] < t:
            record(t, kernel.y.flat, _evaluated(kernel, kernel.y, end))

    heights = np.array(rows)
    energy, grad_norm, min_gap = np.array(diagnostics).T
    members = system._components if system.kind == "weave" else ()  # graph samples carry no component sums
    # each sum runs along a C-ordered row, in the order of a 1-D sum: a
    # gather from a column slice would be F-ordered and summed in another
    m_components = np.empty((len(rows), len(members)))
    for k, (blue, red) in enumerate(members):
        m_components[:, k] = np.add.reduce(np.take(heights, blue, axis=1), axis=1)
        m_components[:, k] += np.add.reduce(np.take(heights, red + n, axis=1), axis=1)
    columns = dict(
        t=np.array(times), heights=heights, energy=energy, grad_norm=grad_norm, min_gap=min_gap,
        m_blue=np.add.reduce(heights[:, :n], axis=1) / n, m_red=np.add.reduce(heights[:, n:], axis=1) / n,
        m_components=m_components,
    )
    for column in columns.values():
        column.setflags(write=False)
    return Trajectory(system=system, status=status, x=config0.x, stats=stats, **columns)
