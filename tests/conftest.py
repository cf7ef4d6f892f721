"""Shared helpers: bundled designs and randomized systems for invariant tests."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

DESIGN_DIR = Path(__file__).resolve().parent.parent / "designs"

GRAPH_DESIGNS = [
    "entangled_pair.graph",
    "untangled_pair.graph",
    "square_checker.graph",
    "square_flat.graph",
    "honeycomb.graph",
]

WEAVE_DESIGNS = [
    "checker_4x4.weave",
    "chained_4x4.weave",
    "two_blocks_4x4.weave",
    "three_blocks_6x6.weave",
    "split_2x2.weave",
    "layered_2x2.weave",
    "mixed_stack_6x6.weave",
]


def load_system(name):
    from tangleflow.designio import design_to_system, load_design

    return design_to_system(load_design(DESIGN_DIR / name))


def random_graph_system(rng: np.random.Generator, max_vertices: int = 12):
    """Random connected multigraph quotient with random crossing signs."""
    from tangleflow.model import PeriodicQuotientGraph, build_entangled_system

    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    order = [int(v) for v in rng.permutation(n)]
    for k in range(1, n):  # spanning tree guarantees connectivity
        u = order[int(rng.integers(0, k))]
        v = order[k]
        shift = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        edges.append((u, v, shift))
    for _ in range(int(rng.integers(1, n + 2))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        shift = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        if u == v and shift == (0, 0):
            shift = (1, 0)
        edges.append((u, v, shift))
    graph = PeriodicQuotientGraph(
        n_vertices=n,
        edges=tuple(edges),
        lattice_basis=((1.0, 0.0), (0.0, 1.0)),
    )
    sign = tuple(int(s) for s in rng.choice([-1, 1], size=n))
    return build_entangled_system(graph, sign)


def random_weave_system(rng: np.random.Generator, max_threads: int = 6):
    from tangleflow.model import WeaveDesign, build_weave_system

    n_blue = int(rng.integers(2, max_threads + 1))
    n_red = int(rng.integers(2, max_threads + 1))
    sign = tuple(
        tuple(int(s) for s in rng.choice([-1, 1], size=n_red)) for _ in range(n_blue)
    )
    return build_weave_system(WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign, spacing=1.0))


def smallest_first_order(n, edges):
    """Reference sort of nodes 0..n-1 under "a above b" edges: repeatedly
    place the smallest node whose predecessors are all placed, noting whether
    more than one was available."""
    order, ambiguous = [], False
    while len(order) < n:
        ready = [k for k in range(n) if k not in order and all(a in order for a, b in edges if b == k)]
        ambiguous = ambiguous or len(ready) > 1
        order.append(min(ready))
    return order, ambiguous


def kernel_velocity(kernel, y):
    """A copy of the velocity `dynamics._velocity` writes for the stacked
    heights y, evaluated in the kernel's buffers."""
    from tangleflow import dynamics

    kernel.stage.flat[:] = y
    return dynamics._velocity(kernel, kernel.stage, kernel.k2).flat.copy()


def dense_velocity(system, config):
    """The stacked velocity by the dense formula 2 L z +- sign / d^2, with
    the family Laplacians L, and per entry the sum of its terms' magnitudes,
    the scale of its rounding."""
    zb, zr = config.z_blue, config.z_red
    d = zb - zr
    repulsion = system.sign / (d * d)
    velocity = np.concatenate(
        (2.0 * (system.blue_laplacian @ zb) + repulsion, 2.0 * (system.red_laplacian @ zr) - repulsion)
    )
    magnitude = np.concatenate((
        2.0 * (np.abs(system.blue_laplacian) @ np.abs(zb)) + np.abs(repulsion),
        2.0 * (np.abs(system.red_laplacian) @ np.abs(zr)) + np.abs(repulsion),
    ))
    return velocity, magnitude


def nan_error_ros_step(monkeypatch):
    """Make every Rosenbrock step's error estimate NaN, so each is rejected."""
    from tangleflow import dynamics

    real = dynamics._ros_step

    def nan_error(kernel, h, w_inv):
        y_new, error = real(kernel, h, w_inv)
        error.fill(np.nan)
        return y_new, error

    monkeypatch.setattr(dynamics, "_ros_step", nan_error)


@pytest.fixture(scope="session")
def design_dir() -> Path:
    return DESIGN_DIR
