"""Topological classification of systems.

Quotient graphs are entangled exactly when the crossing map takes both
values.  Weaves decompose into height-ordered tangle components: maximal
groups of threads chained together by interlocked 2x2 crossing blocks, plus
leftover single threads grouped by identical crossing profiles.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentHeightOrder, IndexOutOfRange
from .model import _roots

__all__ = [
    "Classification",
    "MinimalComponent",
    "TangleComponent",
    "TangleDecomposition",
    "classify_entangled_graph",
    "minimal_weaved_components",
    "weavely_connected_components",
    "tangle_decomposition",
    "boundary_weight",
    "is_entangled",
]


class Classification(enum.Enum):
    ENTANGLED = "entangled"
    UNTANGLED = "untangled"


@dataclass(frozen=True)
class MinimalComponent:
    """An interlocked 2x2 block: two blue and two red threads whose four
    crossing signs alternate.  Threads are 1-indexed; orientation is the
    sign at (blue_pair[0], red_pair[0])."""

    blue_pair: tuple
    red_pair: tuple
    orientation: int


@dataclass(frozen=True)
class TangleComponent:
    """One layer of the decomposition: its member threads (1-indexed), how it
    arose, and how many crossings connect it to the rest of the weave."""

    blue: tuple
    red: tuple
    kind: str  # "weavely-connected" or "single-untangled"
    weight: int


@dataclass(frozen=True)
class TangleDecomposition:
    """Tangle components ordered from top to bottom."""

    components: tuple
    order_ambiguous: bool
    n_blue: int
    n_red: int

    @property
    def k(self) -> int:
        return len(self.components)


def classify_entangled_graph(system) -> Classification:
    """A quotient-graph system is entangled iff some vertex crosses upward
    and another downward."""
    if system.kind != "entangled-graph":
        raise TypeError(f"expected an entangled-graph system, got kind={system.kind!r}")
    values = set(int(s) for s in system.sign)
    return Classification.ENTANGLED if values == {1, -1} else Classification.UNTANGLED


def minimal_weaved_components(system) -> tuple:
    """All interlocked 2x2 blocks, enumerated lexicographically by
    (blue_pair, red_pair)."""
    if system.kind != "weave":
        raise TypeError(f"expected a weave system, got kind={system.kind!r}")
    sign = system.design.sign
    nb, nr = system.design.n_blue, system.design.n_red
    found = []
    for i1, i2 in itertools.combinations(range(nb), 2):
        for j1, j2 in itertools.combinations(range(nr), 2):
            s = sign[i1][j1]
            if (
                sign[i2][j2] == s
                and sign[i1][j2] == -s
                and sign[i2][j1] == -s
            ):
                found.append(
                    MinimalComponent(
                        blue_pair=(i1 + 1, i2 + 1),
                        red_pair=(j1 + 1, j2 + 1),
                        orientation=int(s),
                    )
                )
    return tuple(found)


def _sign_matrix(system) -> np.ndarray:
    """The weave's crossing signs as an (n_blue, n_red) array."""
    return system.sign.reshape(system.design.n_blue, system.design.n_red)


def weavely_connected_components(system):
    """Merge interlocked blocks that share a thread.

    Returns (components, singles): components is a tuple of (blue, red)
    thread tuples, singles the (blue, red) threads in no block at all.
    """
    if system.kind != "weave":
        raise TypeError(f"expected a weave system, got kind={system.kind!r}")
    S = _sign_matrix(system)
    nb, nr = S.shape
    # blue rows i1, i2 interlock exactly when row i1 takes both signs on the
    # columns where the two rows differ; each such column is a red thread of
    # some block through i1 and i2
    differ = S[:, None, :] != S[None, :, :]
    over = S[:, None, :] > 0
    interlock = np.any(differ & over, axis=2) & np.any(differ & ~over, axis=2)
    adjacency = np.any(interlock[:, :, None] & differ, axis=1)

    # connected thread slots: 0..nb-1 blue, nb..nb+nr-1 red
    i, j = np.nonzero(adjacency)
    roots = _roots(nb + nr, zip(i.tolist(), (j + nb).tolist()))

    in_blue, in_red = adjacency.any(axis=1), adjacency.any(axis=0)
    groups = {}
    for slot in np.flatnonzero(np.concatenate((in_blue, in_red))).tolist():
        groups.setdefault(roots[slot], []).append(slot)
    components = []
    for slots in groups.values():
        blue = tuple(s + 1 for s in slots if s < nb)
        red = tuple(s - nb + 1 for s in slots if s >= nb)
        components.append((blue, red))
    components.sort()
    single_blue = tuple((np.flatnonzero(~in_blue) + 1).tolist())
    single_red = tuple((np.flatnonzero(~in_red) + 1).tolist())
    return tuple(components), (single_blue, single_red)


def _order_nodes(nodes, edges):
    """Topologically sort node indices under "a above b" edges.

    Returns (order, ambiguous) where ambiguous records whether more than one
    node was available at any step (the order is then not forced).  Raises
    InconsistentHeightOrder if the relation is cyclic; the offending cycle of
    node indices is attached to the error.
    """
    n = len(nodes)
    edge_list = sorted(set(edges))
    indegree = [0] * n
    out = [[] for _ in range(n)]
    for a, b in edge_list:
        out[a].append(b)
        indegree[b] += 1
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    order = []
    ambiguous = False
    while ready:
        if len(ready) > 1:
            ambiguous = True
        node = ready.pop(0)
        order.append(node)
        for b in out[node]:
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
        ready.sort()
    if len(order) != n:
        placed = set(order)
        remaining = [i for i in range(n) if i not in placed]
        # every remaining node keeps an unconsumed predecessor, so walking
        # backwards must revisit a node and exposes a cycle
        seen = []
        node = remaining[0]
        while node not in seen:
            seen.append(node)
            node = min(a for a, b in edge_list if b == node and a not in placed)
        cycle = tuple(reversed(seen[seen.index(node):]))
        raise InconsistentHeightOrder(cycle)
    return order, ambiguous


def tangle_decomposition(system) -> TangleDecomposition:
    """Partition the threads into height-ordered tangle components.

    Components are the weavely connected components plus groups of leftover
    single threads sharing an identical crossing profile; they are sorted
    from top to bottom using every crossing between distinct components as a
    vote (blue-over-red puts the blue component higher).
    """
    wccs, (single_blue, single_red) = weavely_connected_components(system)
    S = _sign_matrix(system)
    nb, nr = S.shape

    nodes = [(blue, red, "weavely-connected") for blue, red in wccs]
    grouped = {}
    for i in single_blue:
        grouped.setdefault(("blue", S[i - 1].tobytes()), []).append(i)
    for j in single_red:
        grouped.setdefault(("red", S[:, j - 1].tobytes()), []).append(j)
    for (family, _profile), members in sorted(grouped.items(), key=lambda kv: (kv[0][0], kv[1])):
        if family == "blue":
            nodes.append((tuple(members), (), "single-untangled"))
        else:
            nodes.append(((), tuple(members), "single-untangled"))

    owner_blue = np.empty(nb, dtype=int)
    owner_red = np.empty(nr, dtype=int)
    for idx, (blue, red, _kind) in enumerate(nodes):
        owner_blue[[i - 1 for i in blue]] = idx
        owner_red[[j - 1 for j in red]] = idx

    # every crossing between distinct components votes blue-over-red
    a, b = owner_blue[:, None], owner_red[None, :]
    between = a != b
    over = S > 0
    upper = np.where(over, a, b)[between]
    lower = np.where(over, b, a)[between]
    edges = set(zip(upper.tolist(), lower.tolist()))

    order, ambiguous = _order_nodes(nodes, edges)
    components = []
    for idx in order:
        blue, red, kind = nodes[idx]
        weight = len(blue) * (nr - len(red)) + len(red) * (nb - len(blue))
        components.append(TangleComponent(blue=blue, red=red, kind=kind, weight=weight))
    return TangleDecomposition(
        components=tuple(components),
        order_ambiguous=ambiguous,
        n_blue=nb,
        n_red=nr,
    )


def boundary_weight(decomposition: TangleDecomposition, k: int) -> int:
    """Crossings between component k (1-indexed, top to bottom) and the rest."""
    if not 1 <= k <= decomposition.k:
        raise IndexOutOfRange(
            f"component index {k} out of range 1..{decomposition.k}"
        )
    return decomposition.components[k - 1].weight


def is_entangled(system) -> bool:
    """Entangledness for either system kind: sign values for quotient graphs,
    a single tangle component for weaves."""
    if system.kind == "entangled-graph":
        return classify_entangled_graph(system) is Classification.ENTANGLED
    return tangle_decomposition(system).k == 1
