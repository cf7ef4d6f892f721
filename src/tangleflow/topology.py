"""Topological classification of systems.

Quotient graphs are entangled exactly when the crossing map takes both
values.  Weaves decompose into height-ordered tangle components: maximal
groups of threads chained together by interlocked 2x2 crossing blocks, plus
leftover single threads grouped by identical crossing profiles.  Both kinds
are the reach classes of the crossing digraph, and one sort orders them.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, WrongKind

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
    """Tangle components ordered from top to bottom.  order_ambiguous is always
    False: reach classes are totally ordered, so the order is forced."""

    components: tuple
    order_ambiguous: bool
    n_blue: int
    n_red: int

    @property
    def k(self) -> int:
        return len(self.components)


def classify_entangled_graph(system) -> Classification:
    """A quotient-graph system is entangled iff some vertex crosses upward
    and another downward: its two copies are then one component."""
    if system.kind != "entangled-graph":
        raise WrongKind(f"expected an entangled-graph system, got kind={system.kind!r}")
    return Classification.ENTANGLED if is_entangled(system) else Classification.UNTANGLED


def minimal_weaved_components(system) -> tuple:
    """All interlocked 2x2 blocks, enumerated lexicographically by
    (blue_pair, red_pair)."""
    if system.kind != "weave":
        raise WrongKind(f"expected a weave system, got kind={system.kind!r}")
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


def _thread_classes(system):
    """The tangle components of a weave, top to bottom, as the reach classes
    of its crossing digraph: thread a points to thread b when a passes over b.

    Every crossing between two components puts the upper one on top (the
    height-order law), so no thread reaches a component above its own.  An
    interlocked 2x2 block is a 4-cycle, so a weavely connected component's
    threads all reach each other; single threads with one crossing profile
    have the same arcs.  So the components are exactly the classes of threads
    that reach, and are reached from, the same threads.  Any two classes are
    linked: threads of different families cross directly, and two one-family
    groups differ at some crossing thread, which lies between them.  So the
    classes are totally ordered, one above another has more threads strictly
    below it, and one sort by that count, the only one, finds them in order.

    Returns each class's (blue, red) thread tuples (1-indexed), top to bottom.
    """
    if system.kind != "weave":
        raise WrongKind(f"expected a weave system, got kind={system.kind!r}")
    nb, nr = system.design.n_blue, system.design.n_red
    over = system.sign.reshape(nb, nr) > 0
    # slots: blue 0..nb-1, red nb..; reach[a, b] if a == b or crossings lead down from a to b
    reach = np.eye(nb + nr)
    reach[:nb, nb:] = over
    reach[nb:, :nb] = ~over.T
    for _ in range((nb + nr - 1).bit_length()):  # k squarings close paths of up to 2**k arcs
        reach = (reach @ reach > 0).astype(float)
    strictly = reach > reach.T  # a reaches b, and b does not reach a
    groups = {}
    for slot, count in enumerate(strictly.sum(axis=1).tolist()):
        groups.setdefault(count, []).append(slot)
    slots = [groups[count] for count in sorted(groups, reverse=True)]
    return [(tuple(s + 1 for s in g if s < nb), tuple(s - nb + 1 for s in g if s >= nb)) for g in slots]


def weavely_connected_components(system):
    """The interlocked blocks, merged where they share a thread.

    Returns (components, singles): components is a tuple of (blue, red)
    thread tuples, singles the (blue, red) threads in no block at all.
    """
    classes = _thread_classes(system)
    components = sorted((blue, red) for blue, red in classes if blue and red)
    single_blue = sorted(i for blue, red in classes if not red for i in blue)
    single_red = sorted(j for blue, red in classes if not blue for j in red)
    return tuple(components), (tuple(single_blue), tuple(single_red))


def tangle_decomposition(system) -> TangleDecomposition:
    """Partition the threads into height-ordered tangle components: the
    weavely connected components plus groups of leftover single threads
    sharing an identical crossing profile, top to bottom (`_thread_classes`).
    """
    classes = _thread_classes(system)  # checks the system kind before design is read
    nb, nr = system.design.n_blue, system.design.n_red
    components = []
    for blue, red in classes:
        kind = "weavely-connected" if blue and red else "single-untangled"
        weight = len(blue) * (nr - len(red)) + len(red) * (nb - len(blue))
        components.append(TangleComponent(blue=blue, red=red, kind=kind, weight=weight))
    return TangleDecomposition(
        components=tuple(components),
        order_ambiguous=False,
        n_blue=nb,
        n_red=nr,
    )


def boundary_weight(decomposition: TangleDecomposition, k: int) -> int:
    """Crossings between component k (1-indexed, top to bottom) and the rest."""
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and 1 <= k <= decomposition.k):
        raise IndexOutOfRange(
            f"component index {k!r} out of range 1..{decomposition.k}"
        )
    return decomposition.components[k - 1].weight


def is_entangled(system) -> bool:
    """Entangledness for either system kind: one component in `system._components`."""
    return len(system._components) == 1
