"""Machine speed, measured while the benchmark runs.

On a shared machine the same operation can take 1.6x longer from one minute
to the next, and swings of +-30% within ten seconds are common.  To keep the
end-to-end times comparable between runs, a fixed reference kernel runs
between operations (every REFERENCE_EVERY_S seconds, outside the timed
calls).  Each measured time is scaled by REFERENCE_S / (median time of the
reference runs around it): the result is in seconds at the speed where the
kernel takes REFERENCE_S.

The kernel does what this program's hot loops do: an integrator step
(small dense matrix-vector products, elementwise numpy arithmetic,
reductions, Python control flow) and Jacobi rotations (scalar reads and
writes of numpy matrix entries).  It calls nothing from tangleflow, so a
change to the program cannot change it.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Changing any of these three changes every scaled time.
REFERENCE_STEPS = 250
# a round value near the kernel's median on the 2-core VM the benchmark was
# built on (Python 3.11.7, numpy 2.4.6), where it ranged from 8 to 16 ms
REFERENCE_S = 0.012
REFERENCE_EVERY_S = 0.25
NEIGHBOURS = (3, 2)  # reference runs taken before / after a measured time

_N = 16
_RING = np.zeros((_N, _N))
for _i in range(_N):
    _RING[_i, _i] = -2.0
    _RING[_i, (_i + 1) % _N] = _RING[(_i + 1) % _N, _i] = 1.0
_SIGN = np.ones(_N)
_COS, _SIN = math.cos(0.1), math.sin(0.1)


def reference_kernel():
    """Seconds for REFERENCE_STEPS explicit steps of a 16-vertex ring (numpy
    dispatch on small arrays, like the integrator) plus as many sweeps of
    elementwise plane rotations on a numpy matrix (like the Jacobi
    eigensolver)."""
    z_blue = np.linspace(1.0, 2.0, _N)
    z_red = -z_blue
    vectors = np.eye(_N)
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        d = z_blue - z_red
        repulsion = _SIGN / (d * d)
        v_blue = 2.0 * (_RING @ z_blue) + repulsion
        v_red = 2.0 * (_RING @ z_red) - repulsion
        z_blue = z_blue + 1e-3 * v_blue
        z_red = z_red + 1e-3 * v_red
        sup = max(float(np.max(np.abs(v_blue))), float(np.max(np.abs(v_red))))
        if not (sup < 1e6 and np.all(np.sign(z_blue - z_red) == _SIGN)):
            raise ArithmeticError("reference kernel left its feasible set")
        for r in range(_N - 1):
            a, b = vectors[r, 0], vectors[r + 1, 0]
            vectors[r, 0] = _COS * a - _SIN * b
            vectors[r + 1, 0] = _SIN * a + _COS * b
    return time.perf_counter() - start


class Speed:
    """Reference-kernel timings of one run, with the time each started."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def sample(self):
        self.starts.append(time.perf_counter())
        self.seconds.append(reference_kernel())

    def sample_if_due(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, at):
        """Factor turning a time measured at perf_counter() == at into
        seconds at the reference speed."""
        i = bisect.bisect_right(self.starts, at)
        near = self.seconds[max(0, i - NEIGHBOURS[0]): i + NEIGHBOURS[1]]
        return REFERENCE_S / statistics.median(near)

    def median_s(self):
        return statistics.median(self.seconds)
