"""Classification: entangledness, interlocked blocks, tangle decomposition."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import (
    GRAPH_DESIGNS,
    WEAVE_DESIGNS,
    load_system,
    random_graph_system,
    random_weave_system,
    smallest_first_order,
)
from tangleflow.errors import IndexOutOfRange
from tangleflow.model import WeaveDesign, build_weave_system, random_initial_configuration
from tangleflow.topology import (
    Classification,
    boundary_weight,
    classify_entangled_graph,
    is_entangled,
    minimal_weaved_components,
    tangle_decomposition,
    weavely_connected_components,
)


def weave(rows):
    sign = tuple(tuple(r) for r in rows)
    return build_weave_system(
        WeaveDesign(n_blue=len(rows), n_red=len(rows[0]), sign=sign, spacing=1.0)
    )


def test_classify_by_sign_values():
    assert classify_entangled_graph(load_system("entangled_pair.graph")) is Classification.ENTANGLED
    assert classify_entangled_graph(load_system("untangled_pair.graph")) is Classification.UNTANGLED
    assert classify_entangled_graph(load_system("square_checker.graph")) is Classification.ENTANGLED
    assert classify_entangled_graph(load_system("honeycomb.graph")) is Classification.ENTANGLED
    assert classify_entangled_graph(load_system("square_flat.graph")) is Classification.UNTANGLED


def test_graph_is_entangled_agrees_with_the_classifier_and_the_signs():
    """On bundled and random graphs, `is_entangled` is the classifier's
    verdict and holds exactly when both crossing signs occur.  The component
    table is then both copies in one; otherwise it is the upper copy, whose
    heights all lie above the lower's, then the lower.  Per family the
    components' vertices partition range(n)."""
    rng = np.random.default_rng(29)
    systems = [load_system(name) for name in GRAPH_DESIGNS]
    systems += [random_graph_system(rng, max_vertices=4) for _ in range(60)]
    verdicts = []
    for system in systems:
        entangled = is_entangled(system)
        verdicts.append(entangled)
        assert entangled == (classify_entangled_graph(system) is Classification.ENTANGLED)
        assert entangled == (set(system.sign.tolist()) == {1, -1})
        n, members = system.n_vertices, system._components
        assert len(members) == (1 if entangled else 2)
        for family in (0, 1):
            vertices = np.concatenate([m[family] for m in members])
            assert np.array_equal(np.sort(vertices), np.arange(n))
            assert all(not m[family].flags.writeable for m in members)
        if not entangled:
            config = random_initial_configuration(system, seed=3)
            heights = np.concatenate((config.z_blue, config.z_red))
            upper, lower = (heights[np.concatenate((blue, red + n))] for blue, red in members)
            assert upper.size == lower.size == n and upper.min() > lower.max()
    assert True in verdicts and False in verdicts


def test_minimal_components_smallest_cases():
    one = minimal_weaved_components(weave([[1, -1], [-1, 1]]))
    assert len(one) == 1
    assert one[0].blue_pair == (1, 2) and one[0].red_pair == (1, 2)
    assert one[0].orientation == 1

    other = minimal_weaved_components(weave([[-1, 1], [1, -1]]))
    assert len(other) == 1 and other[0].orientation == -1

    assert minimal_weaved_components(weave([[1, 1], [-1, -1]])) == ()


def test_minimal_components_checkerboard():
    system = load_system("checker_4x4.weave")
    comps = minimal_weaved_components(system)
    pairs = {(c.blue_pair, c.red_pair) for c in comps}
    for expected in [((1, 2), (1, 2)), ((2, 3), (2, 3)), ((3, 4), (3, 4)), ((1, 4), (1, 4))]:
        assert expected in pairs
    # deterministic lexicographic enumeration
    keys = [(c.blue_pair, c.red_pair) for c in comps]
    assert keys == sorted(keys)


def test_weavely_connected_chained():
    system = load_system("chained_4x4.weave")
    components, singles = weavely_connected_components(system)
    assert len(components) == 1
    assert components[0] == ((1, 2, 3, 4), (1, 2, 3, 4))
    assert singles == ((), ())


def test_weavely_connected_none():
    system = load_system("split_2x2.weave")
    components, singles = weavely_connected_components(system)
    assert components == ()
    assert singles == ((1, 2), (1, 2))


def test_weavely_connected_single_block():
    components, singles = weavely_connected_components(weave([[1, -1], [-1, 1]]))
    assert components == (((1, 2), (1, 2)),)
    assert singles == ((), ())


def test_decomposition_three_stacked_blocks():
    decomp = tangle_decomposition(load_system("three_blocks_6x6.weave"))
    assert decomp.k == 3
    assert [(c.blue, c.red) for c in decomp.components] == [
        ((1, 2), (1, 2)),
        ((3, 4), (3, 4)),
        ((5, 6), (5, 6)),
    ]
    assert all(c.kind == "weavely-connected" for c in decomp.components)
    assert not decomp.order_ambiguous


def test_decomposition_mixed_stack():
    decomp = tangle_decomposition(load_system("mixed_stack_6x6.weave"))
    assert [(c.blue, c.red) for c in decomp.components] == [
        ((1, 2), (1, 2)),
        ((3,), ()),
        ((), (3, 4)),
        ((4,), ()),
        ((5, 6), (5, 6)),
    ]
    kinds = [c.kind for c in decomp.components]
    assert kinds == [
        "weavely-connected",
        "single-untangled",
        "single-untangled",
        "single-untangled",
        "weavely-connected",
    ]


def test_decomposition_entangled_is_single_component():
    for name in ["checker_4x4.weave", "chained_4x4.weave"]:
        decomp = tangle_decomposition(load_system(name))
        assert decomp.k == 1
        assert decomp.components[0].kind == "weavely-connected"
        assert decomp.components[0].blue == (1, 2, 3, 4)
        assert decomp.components[0].red == (1, 2, 3, 4)


def test_decomposition_two_blocks():
    decomp = tangle_decomposition(load_system("two_blocks_4x4.weave"))
    assert [(c.blue, c.red) for c in decomp.components] == [
        ((1, 2), (1, 2)),
        ((3, 4), (3, 4)),
    ]


def test_decomposition_split_and_layered():
    split = tangle_decomposition(load_system("split_2x2.weave"))
    assert [(c.blue, c.red) for c in split.components] == [((1, 2), ()), ((), (1, 2))]

    layered = tangle_decomposition(load_system("layered_2x2.weave"))
    assert [(c.blue, c.red) for c in layered.components] == [
        ((1,), ()),
        ((), (1, 2)),
        ((2,), ()),
    ]


def test_boundary_weights():
    three = tangle_decomposition(load_system("three_blocks_6x6.weave"))
    assert boundary_weight(three, 1) == 16
    assert boundary_weight(three, 2) == 16  # middle block crosses 4 outside threads per colour
    assert [c.weight for c in three.components] == [16, 16, 16]

    split = tangle_decomposition(load_system("split_2x2.weave"))
    assert boundary_weight(split, 1) == 4

    entangled = tangle_decomposition(load_system("checker_4x4.weave"))
    assert boundary_weight(entangled, 1) == 0

    with pytest.raises(IndexOutOfRange):
        boundary_weight(three, 0)
    with pytest.raises(IndexOutOfRange):
        boundary_weight(three, 4)
    for k in ("1", 1.5, True):  # a raw TypeError, a raw TypeError, component 1
        with pytest.raises(IndexOutOfRange):
            boundary_weight(three, k)


def height_order_law_holds(system, decomp) -> bool:
    """Exhaustive scan: every crossing between distinct components respects the order."""
    sign = np.asarray(system.design.sign)
    for a, comp_a in enumerate(decomp.components):
        for b, comp_b in enumerate(decomp.components):
            if a >= b:
                continue
            # comp_a is above comp_b
            for i in comp_a.blue:
                for j in comp_b.red:
                    if sign[i - 1][j - 1] != 1:
                        return False
            for i in comp_b.blue:
                for j in comp_a.red:
                    if sign[i - 1][j - 1] != -1:
                        return False
    return True


def test_partition_and_order_law_on_all_bundled_weaves():
    for name in WEAVE_DESIGNS:
        system = load_system(name)
        decomp = tangle_decomposition(system)
        blues = [i for c in decomp.components for i in c.blue]
        reds = [j for c in decomp.components for j in c.red]
        assert sorted(blues) == list(range(1, system.design.n_blue + 1))
        assert sorted(reds) == list(range(1, system.design.n_red + 1))
        assert height_order_law_holds(system, decomp)
        # entangled exactly when the decomposition is a single component
        loops = minimal_weaved_components(system)
        covered_b = {i for c in loops for i in c.blue_pair}
        entangled = decomp.k == 1
        if entangled:
            assert covered_b == set(range(1, system.design.n_blue + 1))


def test_partition_and_order_law_on_random_weaves():
    rng = np.random.default_rng(17)
    for _ in range(40):
        system = random_weave_system(rng)
        decomp = tangle_decomposition(system)
        blues = [i for c in decomp.components for i in c.blue]
        reds = [j for c in decomp.components for j in c.red]
        assert sorted(blues) == list(range(1, system.design.n_blue + 1))
        assert sorted(reds) == list(range(1, system.design.n_red + 1))
        assert height_order_law_holds(system, decomp)
        assert not decomp.order_ambiguous


def thread_by_thread_vertices(system, comp):
    """A component's vertices, expanded from the thread tuples."""
    blue = np.array([v for i in comp.blue for v in system.blue_threads[i - 1]], dtype=int)
    red = np.array([v for j in comp.red for v in system.red_threads[j - 1]], dtype=int)
    return blue, red


def test_component_vertices_expand_threads_in_order():
    """The component table, built once, holds per tangle component the
    thread-by-thread expansion of its threads, order included, frozen, and
    per family the components' vertices partition range(n)."""
    rng = np.random.default_rng(17)  # the random weaves of the partition test above
    systems = [load_system(name) for name in WEAVE_DESIGNS]
    systems += [random_weave_system(rng) for _ in range(40)]
    for system in systems:
        components = tangle_decomposition(system).components
        members = system._components
        assert len(members) == len(components) and system._components is members
        for comp, (blue, red) in zip(components, members):
            expected_blue, expected_red = thread_by_thread_vertices(system, comp)
            assert np.array_equal(blue, expected_blue) and blue.dtype.kind == "i"
            assert np.array_equal(red, expected_red) and red.dtype.kind == "i"
            assert not (blue.flags.writeable or red.flags.writeable)
        for family in (0, 1):
            vertices = np.concatenate([m[family] for m in members])
            assert np.array_equal(np.sort(vertices), np.arange(system.n_vertices))


def test_relabeling_invariance():
    """Reversing the blue thread order relabels but does not change the structure."""
    base = load_system("three_blocks_6x6.weave")
    rows = [list(r) for r in base.design.sign]
    reversed_system = weave(rows[::-1])
    decomp = tangle_decomposition(reversed_system)
    relabeled = [
        (tuple(sorted(7 - i for i in c.blue)), c.red) for c in decomp.components
    ]
    base_decomp = tangle_decomposition(base)
    assert sorted(relabeled) == sorted((c.blue, c.red) for c in base_decomp.components)


def oracle_weavely_connected(sign):
    """Reference interlock grouping: scan every 2x2 block of the sign matrix,
    join the four threads of each alternating block, and list the threads in
    no block as singles."""
    nb, nr = len(sign), len(sign[0])
    parent = list(range(nb + nr))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    in_block = set()
    for i1 in range(nb):
        for i2 in range(i1 + 1, nb):
            for j1 in range(nr):
                for j2 in range(j1 + 1, nr):
                    s = sign[i1][j1]
                    if sign[i2][j2] == s and sign[i1][j2] == -s and sign[i2][j1] == -s:
                        slots = (i1, i2, nb + j1, nb + j2)
                        in_block.update(slots)
                        for other in slots[1:]:
                            ra, rb = find(slots[0]), find(other)
                            if ra != rb:
                                parent[ra] = rb
    groups = {}
    for slot in sorted(in_block):
        groups.setdefault(find(slot), []).append(slot)
    components = sorted(
        (tuple(s + 1 for s in g if s < nb), tuple(s - nb + 1 for s in g if s >= nb))
        for g in groups.values()
    )
    singles = (
        tuple(i + 1 for i in range(nb) if i not in in_block),
        tuple(j + 1 for j in range(nr) if nb + j not in in_block),
    )
    return tuple(components), singles


def oracle_decomposition(sign):
    """Reference decomposition: the oracle components, then single threads
    grouped by identical crossing profile, ordered by every crossing between
    distinct groups, smallest group first wherever the order is not forced."""
    nb, nr = len(sign), len(sign[0])
    components, (single_blue, single_red) = oracle_weavely_connected(sign)
    nodes = [(blue, red, "weavely-connected") for blue, red in components]
    grouped = {}
    for i in single_blue:
        grouped.setdefault(("blue", tuple(sign[i - 1])), []).append(i)
    for j in single_red:
        grouped.setdefault(("red", tuple(row[j - 1] for row in sign)), []).append(j)
    for (family, _), members in sorted(grouped.items(), key=lambda kv: (kv[0][0], kv[1])):
        pair = (tuple(members), ()) if family == "blue" else ((), tuple(members))
        nodes.append((*pair, "single-untangled"))
    owner_blue = {i: k for k, (blue, _, _) in enumerate(nodes) for i in blue}
    owner_red = {j: k for k, (_, red, _) in enumerate(nodes) for j in red}
    edges = set()
    for i in range(1, nb + 1):
        for j in range(1, nr + 1):
            a, b = owner_blue[i], owner_red[j]
            if a != b:
                edges.add((a, b) if sign[i - 1][j - 1] == 1 else (b, a))
    order, ambiguous = smallest_first_order(len(nodes), edges)
    layers = []
    for k in order:
        blue, red, kind = nodes[k]
        layers.append((blue, red, kind, len(blue) * (nr - len(red)) + len(red) * (nb - len(blue))))
    return layers, ambiguous


def checkerboard(n_blue, n_red, phase=1):
    return [[phase if (i + j) % 2 == 0 else -phase for j in range(n_red)] for i in range(n_blue)]


def stacked_blocks(sizes):
    """Interlocked checkerboard blocks stacked top to bottom."""
    owner = [k for k, size in enumerate(sizes) for _ in range(size)]
    n = len(owner)
    return [
        [
            (1 if (i + j) % 2 == 0 else -1) if owner[i] == owner[j] else (1 if owner[i] < owner[j] else -1)
            for j in range(n)
        ]
        for i in range(n)
    ]


def equivalence_sign_matrices():
    """Every sign matrix of at most 9 entries, then random matrices up to 9x9,
    checkerboards up to 24x24 and stacks of interlocked blocks."""
    for nb in range(1, 10):
        for nr in range(1, 9 // nb + 1):
            for entries in itertools.product((1, -1), repeat=nb * nr):
                yield [list(entries[i * nr:(i + 1) * nr]) for i in range(nb)]
    rng = np.random.default_rng(2023)
    for _ in range(320):
        nb, nr = (int(k) for k in rng.integers(1, 10, size=2))
        p = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        yield [[1 if rng.random() < p else -1 for _ in range(nr)] for _ in range(nb)]
    for n in range(2, 25, 2):
        yield checkerboard(n, n)
        yield checkerboard(n, n + 1, -1)
    for sizes in [(2, 2), (2, 3, 4), (4, 4, 4), (3, 2, 4, 3, 2), (2,) * 12, (4, 3, 2, 4, 3, 4, 4)]:
        yield stacked_blocks(sizes)


def test_decomposition_matches_block_scan_oracle():
    count = 0
    for sign in equivalence_sign_matrices():
        system = weave(sign)
        assert weavely_connected_components(system) == oracle_weavely_connected(sign)
        decomp = tangle_decomposition(system)
        layers, ambiguous = oracle_decomposition(sign)
        assert [(c.blue, c.red, c.kind, c.weight) for c in decomp.components] == layers
        assert decomp.order_ambiguous == ambiguous
        count += 1
    assert count >= 300


@pytest.mark.parametrize(
    "function, design, expected",
    [
        (tangle_decomposition, GRAPH_DESIGNS[0], "weave"),
        (weavely_connected_components, GRAPH_DESIGNS[0], "weave"),
        (minimal_weaved_components, GRAPH_DESIGNS[0], "weave"),
        (classify_entangled_graph, WEAVE_DESIGNS[0], "entangled-graph"),
    ],
)
def test_classifiers_reject_the_other_system_kind(function, design, expected):
    system = load_system(design)
    with pytest.raises(TypeError, match=rf"^expected an? {expected} system, got kind='{system.kind}'$"):
        function(system)
