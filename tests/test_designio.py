"""Design-file grammar, round-trips, and trajectory/configuration writers."""
from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import DESIGN_DIR, GRAPH_DESIGNS, WEAVE_DESIGNS, load_system, random_graph_system
from tangleflow.designio import (
    _g17,
    design_to_system,
    load_design,
    parse_design,
    serialize_design,
    write_configuration_json,
    write_trajectory_csv,
)
from tangleflow.dynamics import FlowParams, integrate
from tangleflow.errors import DesignSemanticError, DesignSyntaxError, IoError
from tangleflow.model import (
    Configuration,
    GraphDesign,
    PeriodicQuotientGraph,
    WeaveDesign,
    build_entangled_system,
    build_weave_system,
    random_initial_configuration,
)

GOOD_GRAPH = """kind entangled-graph
vertices 2
lattice 1 0 0 1
edge 0 1 0 0
edge 1 0 1 0
sign + -
"""

GOOD_WEAVE = """kind weave
threads 2 2
spacing 1
sign + -
sign - +
"""


def test_parse_all_bundled_designs():
    for name in GRAPH_DESIGNS + WEAVE_DESIGNS:
        design = load_design(DESIGN_DIR / name)
        expected = GraphDesign if name.endswith(".graph") else WeaveDesign
        assert isinstance(design, expected)
        design_to_system(design)  # builds without error


def test_round_trip_serialize_parse():
    for name in GRAPH_DESIGNS + WEAVE_DESIGNS:
        design = load_design(DESIGN_DIR / name)
        assert parse_design(serialize_design(design)) == design


@pytest.mark.parametrize("function", [serialize_design, design_to_system])
def test_a_non_design_is_rejected(function):
    with pytest.raises(TypeError, match=r"^not a design: 'kind weave'$"):
        function("kind weave")


def test_parse_good_strings():
    graph = parse_design(GOOD_GRAPH)
    assert graph.sign == (1, -1)
    assert graph.graph.n_vertices == 2
    assert graph.graph.edges == ((0, 1, (0, 0)), (1, 0, (1, 0)))
    weave = parse_design(GOOD_WEAVE)
    assert weave.n_blue == 2 and weave.n_red == 2
    assert weave.sign == ((1, -1), (-1, 1))
    assert weave.spacing == 1.0


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\n" + GOOD_GRAPH.replace(
        "vertices 2", "vertices 2  # trailing comment"
    )
    assert parse_design(text) == parse_design(GOOD_GRAPH)


@pytest.mark.parametrize(
    "text,line,col",
    [
        (GOOD_GRAPH.replace("sign + -", "sign + *"), 6, 8),
        ("kind banana\n", 1, 6),
        ("kind entangled-graph\nfrobnicate 3\n", 2, 1),
        ("kind entangled-graph\nvertices two\n", 2, 10),
        (GOOD_GRAPH.replace("edge 0 1 0 0", "edge 0 1 0"), 4, 1),
        (GOOD_GRAPH.replace("lattice 1 0 0 1", "lattice 1 0 one 1"), 3, 13),
        # a bad entry at the end of a long sign row, and one after a tab
        ("kind weave\nthreads 1 40\nspacing 1\nsign " + "+ " * 39 + "x\n", 4, 84),
        ("kind weave\nthreads 1 2\nspacing 1\nsign\t+\t?\n", 4, 8),
    ],
)
def test_syntax_errors_report_position(text, line, col):
    with pytest.raises(DesignSyntaxError) as err:
        parse_design(text)
    assert err.value.line == line
    assert err.value.col == col


@pytest.mark.parametrize(
    "text",
    [
        GOOD_GRAPH.replace("sign + -", "sign + 0"),  # zero sign value
        GOOD_GRAPH.replace("sign + -", "sign + - +"),  # sign arity != vertices
        GOOD_GRAPH.replace("lattice 1 0 0 1\n", ""),  # missing lattice
        GOOD_GRAPH.replace("vertices 2", "vertices 2\nvertices 2"),  # duplicate
        GOOD_WEAVE.replace("sign - +", "sign - + -"),  # ragged row
        GOOD_WEAVE.replace("sign - +\n", ""),  # fewer rows than declared
        GOOD_WEAVE + "sign + -\n",  # more rows than declared
        "vertices 2\nlattice 1 0 0 1\nedge 0 1 0 0\nsign + -\n",  # kind missing
        GOOD_GRAPH.replace("edge 0 1 0 0", "edge 0 7 0 0"),  # endpoint out of range
    ],
)
def test_semantic_errors(text):
    with pytest.raises(DesignSemanticError):
        parse_design(text)


def _graph(old, new):
    return GOOD_GRAPH.replace(old, new)


def _weave(old, new):
    return GOOD_WEAVE.replace(old, new)


# (text, class, message, line, col): every raise statement of the parser at
# least once, and the order of the checks wherever two of them apply
PARSE_ERRORS = [
    # the value parsers
    (_graph("vertices 2", "vertices two"), DesignSyntaxError, "line 2, col 10: expected an integer, got 'two'", 2, 10),
    (_graph("edge 1 0 1 0", "edge 1 0 1 +x"), DesignSyntaxError, "line 5, col 12: expected an integer, got '+x'", 5, 12),
    (_graph("edge 0 1 0 0", "edge x 1 y 0"), DesignSyntaxError, "line 4, col 6: expected an integer, got 'x'", 4, 6),
    (_graph("lattice 1 0 0 1", "lattice 1 0 one 1"), DesignSyntaxError, "line 3, col 13: expected a number, got 'one'", 3, 13),
    (_graph("lattice 1 0 0 1", "lattice a b c d"), DesignSyntaxError, "line 3, col 9: expected a number, got 'a'", 3, 9),
    (_graph("lattice 1 0 0 1", "lattice 1 0 inf 1"), DesignSyntaxError,
     "line 3, col 13: expected a finite number, got 'inf'", 3, 13),
    (_weave("spacing 1", "spacing nan"), DesignSyntaxError, "line 3, col 9: expected a finite number, got 'nan'", 3, 9),
    (_graph("sign + -", "sign + 0"), DesignSemanticError, "sign entries must be + or -, got '0'", None, None),
    (_weave("sign - +", "sign - 2"), DesignSemanticError, "sign entries must be + or -, got '2'", None, None),
    (_graph("sign + -", "sign + *"), DesignSyntaxError, "line 6, col 8: expected a sign entry (+ or -), got '*'", 6, 8),
    # the checks on each line, in order
    ("", DesignSemanticError, "empty design: the kind directive is missing", None, None),
    ("# a comment\n\n   \n", DesignSemanticError, "empty design: the kind directive is missing", None, None),
    ("frobnicate 3\n", DesignSyntaxError, "line 1, col 1: unknown directive 'frobnicate'", 1, 1),
    ("kind weave\nfrobnicate 3\n", DesignSyntaxError, "line 2, col 1: unknown directive 'frobnicate'", 2, 1),
    ("vertices 2\n" + GOOD_GRAPH, DesignSemanticError, "the first directive must be kind", None, None),
    ("sign + -\n", DesignSemanticError, "the first directive must be kind", None, None),
    (_graph("edge 0 1 0 0", "threads 1 1"), DesignSemanticError,
     "directive 'threads' is not valid for kind 'entangled-graph'", None, None),
    (_weave("spacing 1", "vertices 2 x"), DesignSemanticError, "directive 'vertices' is not valid for kind 'weave'", None, None),
    (_weave("spacing 1", "edge 0 1"), DesignSemanticError, "directive 'edge' is not valid for kind 'weave'", None, None),
    ("kind\n", DesignSyntaxError, "line 1, col 1: directive 'kind' takes 1 value(s), got 0", 1, 1),
    ("kind weave graph\n", DesignSyntaxError, "line 1, col 1: directive 'kind' takes 1 value(s), got 2", 1, 1),
    ("kind weave\nkind\n", DesignSyntaxError, "line 2, col 1: directive 'kind' takes 1 value(s), got 0", 2, 1),
    ("kind weave\nkind weave\n", DesignSemanticError, "duplicate kind directive", None, None),
    ("kind weave\nkind banana\n", DesignSemanticError, "duplicate kind directive", None, None),
    ("kind banana\n", DesignSyntaxError, "line 1, col 6: kind must be entangled-graph or weave, got 'banana'", 1, 6),
    (_graph("vertices 2", "vertices"), DesignSyntaxError, "line 2, col 1: directive 'vertices' takes 1 value(s), got 0", 2, 1),
    (_graph("lattice 1 0 0 1", "lattice 1 0 0"), DesignSyntaxError,
     "line 3, col 1: directive 'lattice' takes 4 value(s), got 3", 3, 1),
    (_graph("edge 0 1 0 0", "edge 0 1 0"), DesignSyntaxError, "line 4, col 1: directive 'edge' takes 4 value(s), got 3", 4, 1),
    (_weave("threads 2 2", "threads 2"), DesignSyntaxError, "line 2, col 1: directive 'threads' takes 2 value(s), got 1", 2, 1),
    (_weave("spacing 1", "spacing"), DesignSyntaxError, "line 3, col 1: directive 'spacing' takes 1 value(s), got 0", 3, 1),
    (_weave("spacing 1", "spacing 1 2"), DesignSyntaxError, "line 3, col 1: directive 'spacing' takes 1 value(s), got 2", 3, 1),
    (_graph("sign + -", "sign"), DesignSyntaxError, "line 6, col 1: directive 'sign' needs at least one entry", 6, 1),
    (_weave("sign - +", "sign"), DesignSyntaxError, "line 5, col 1: directive 'sign' needs at least one entry", 5, 1),
    (_graph("vertices 2", "vertices 2\nvertices"), DesignSyntaxError,
     "line 3, col 1: directive 'vertices' takes 1 value(s), got 0", 3, 1),
    (_graph("vertices 2", "vertices 2\nvertices 2"), DesignSemanticError, "duplicate vertices directive", None, None),
    (_graph("vertices 2", "vertices 2\nvertices x"), DesignSemanticError, "duplicate vertices directive", None, None),
    (_graph("lattice 1 0 0 1", "lattice 1 0 0 1\nlattice 1 0 0 1"), DesignSemanticError, "duplicate lattice directive", None, None),
    (_weave("threads 2 2", "threads 2 2\nthreads 2 2"), DesignSemanticError, "duplicate threads directive", None, None),
    (_weave("spacing 1", "spacing 1\nspacing 2"), DesignSemanticError, "duplicate spacing directive", None, None),
    # graph assembly, in order
    ("kind entangled-graph\n", DesignSemanticError, "missing vertices directive", None, None),
    ("kind entangled-graph\nlattice 1 0 0 1\nsign +\n", DesignSemanticError, "missing vertices directive", None, None),
    (_graph("lattice 1 0 0 1\n", ""), DesignSemanticError, "missing lattice directive", None, None),
    (_graph("sign + -\n", ""), DesignSemanticError, "missing sign directive", None, None),
    (GOOD_GRAPH + "sign + -\n", DesignSemanticError, "a graph design takes one sign line, got 2", None, None),
    (_graph("vertices 2", "vertices 0") + "sign -\n", DesignSemanticError, "a graph design takes one sign line, got 2", None, None),
    (_graph("vertices 2", "vertices 0"), DesignSemanticError, "vertex count must be positive, got 0", None, None),
    (_graph("vertices 2", "vertices -3"), DesignSemanticError, "vertex count must be positive, got -3", None, None),
    (_graph("sign + -", "sign + - +"), DesignSemanticError, "sign line has 3 entries for 2 vertices", None, None),
    (_graph("edge 0 1 0 0", "edge 0 7 0 0"), DesignSemanticError, "edge (0, 7) has an endpoint outside 0..1", None, None),
    (_graph("edge 1 0 1 0", "edge -1 0 1 0"), DesignSemanticError, "edge (-1, 0) has an endpoint outside 0..1", None, None),
    # weave assembly, in order
    ("kind weave\n", DesignSemanticError, "missing threads directive", None, None),
    ("kind weave\nspacing 0\nsign +\n", DesignSemanticError, "missing threads directive", None, None),
    ("kind weave\nthreads 0 0\nsign +\n", DesignSemanticError, "missing spacing directive", None, None),
    (_weave("threads 2 2", "threads 0 2"), DesignSemanticError, "thread counts must be positive, got 0 and 2", None, None),
    (_weave("threads 2 2", "threads 2 -1"), DesignSemanticError, "thread counts must be positive, got 2 and -1", None, None),
    ("kind weave\nthreads 2 2\nspacing 1\n", DesignSemanticError, "expected 2 sign rows, got 0", None, None),
    (_weave("sign - +\n", ""), DesignSemanticError, "expected 2 sign rows, got 1", None, None),
    (GOOD_WEAVE + "sign + -\n", DesignSemanticError, "expected 2 sign rows, got 3", None, None),
    (_weave("sign - +", "sign - + -"), DesignSemanticError, "sign row 2 has 3 entries, expected 2", None, None),
    (_weave("spacing 1", "spacing 0").replace("sign - +", "sign -"), DesignSemanticError,
     "sign row 2 has 1 entries, expected 2", None, None),
    (_weave("spacing 1", "spacing 0"), DesignSemanticError, "spacing must be positive, got 0.0", None, None),
    (_weave("spacing 1", "spacing -1.5"), DesignSemanticError, "spacing must be positive, got -1.5", None, None),
]


@pytest.mark.parametrize("text,cls,message,line,col", PARSE_ERRORS)
def test_parse_error_messages(text, cls, message, line, col):
    """The exception class, the message the CLI prints, and the position
    of each parse error."""
    with pytest.raises(cls) as err:
        parse_design(text)
    assert type(err.value) is cls
    assert str(err.value) == message
    assert (getattr(err.value, "line", None), getattr(err.value, "col", None)) == (line, col)


def test_load_design_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_design(tmp_path / "does_not_exist.graph")


def test_load_design_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.weave"
    path.write_bytes(b"kind weave\nthreads 1 1\nspacing 1\nsign \xff\n")
    with pytest.raises(IoError, match="cannot read design file"):
        load_design(path)


def pair_trajectory():
    system = load_system("untangled_pair.graph")
    config = random_initial_configuration(system, seed=3)
    return system, integrate(system, config, FlowParams(t_max=2.0))


def test_trajectory_csv_graph(tmp_path):
    system, traj = pair_trajectory()
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, traj)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,energy,grad_norm,min_gap,M_B,M_R"
    assert len(lines) == 1 + len(traj.samples)
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 6 for row in rows)
    # 17-significant-digit cells reparse to the exact recorded floats
    for row, sample in zip(rows, traj.samples):
        assert float(row[0]) == sample.t
        assert float(row[1]) == sample.energy
        assert float(row[3]) == sample.min_gap
    times = np.array([float(r[0]) for r in rows])
    assert np.all(np.diff(times) > 0)


def test_trajectory_csv_weave_columns(tmp_path):
    system = load_system("two_blocks_4x4.weave")
    config = random_initial_configuration(system, seed=3)
    traj = integrate(system, config, FlowParams(t_max=1.0))
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, traj)
    header = out.read_text().splitlines()[0]
    assert header == "t,energy,grad_norm,min_gap,M_B,M_R,M_W1,M_W2"


@pytest.mark.parametrize(
    "name", ["three_blocks_6x6.weave", "chained_4x4.weave", "untangled_pair.graph", "square_checker.graph"]
)
def test_trajectory_csv_matches_the_per_sample_format(tmp_path, name):
    """The CSV written from the trajectory's columns has the bytes of one
    line per `Sample`, each field through `_g17`, cell by cell: on weave and
    graph runs past the Rosenbrock switch (K = 3 for the weave) and on
    entangled ones."""
    system = load_system(name)
    traj = integrate(system, random_initial_configuration(system, seed=5), FlowParams(t_max=50.0))
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, traj)
    k = len(traj.samples[0].m_components)
    expected = ["t,energy,grad_norm,min_gap,M_B,M_R" + "".join(f",M_W{i}" for i in range(1, k + 1))]
    for s in traj.samples:
        cells = (s.t, s.energy, s.grad_norm, s.min_gap, s.m_blue, s.m_red) + s.m_components
        expected.append(",".join(_g17(cell) for cell in cells))
    assert [line.split(",") for line in out.read_text().split("\n")] == [
        line.split(",") for line in expected + [""]
    ]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_configuration_json_graph(tmp_path):
    system, traj = pair_trajectory()
    out = tmp_path / "config.json"
    write_configuration_json(out, system, traj.samples[-1].config)
    payload = json.loads(out.read_text())
    assert payload["kind"] == "entangled-graph"
    assert len(payload["vertices"]) == 2
    assert len(payload["edges"]) == 2
    for record in payload["vertices"]:
        assert set(record) >= {"x", "y", "z_blue", "z_red", "sign"}
        assert np.sign(record["z_blue"] - record["z_red"]) == record["sign"]
    for edge in payload["edges"]:
        assert set(edge) >= {"u", "v", "shift"}
        assert len(edge["shift"]) == 2


def test_configuration_json_weave(tmp_path):
    system = load_system("checker_4x4.weave")
    config = random_initial_configuration(system, seed=5)
    out = tmp_path / "config.json"
    write_configuration_json(out, system, config)
    payload = json.loads(out.read_text())
    assert payload["kind"] == "weave"
    assert len(payload["vertices"]) == 16
    assert len(payload["threads"]) == 8  # 4 blue + 4 red cycles
    families = [t["family"] for t in payload["threads"]]
    assert families.count("blue") == 4 and families.count("red") == 4
    for thread in payload["threads"]:
        assert len(thread["vertices"]) == 4
        assert len(thread["wrap_shift"]) == 2
    for record in payload["vertices"]:
        assert np.sign(record["z_blue"] - record["z_red"]) == record["sign"]


def reference_json(system, config) -> str:
    """The configuration JSON as json.dumps(payload, indent=2) writes it,
    from the payload dicts the writer documents."""
    payload = {
        "kind": system.kind,
        "lattice_basis": [[float(x) for x in row] for row in system.lattice_basis],
        "vertices": [
            {
                "x": float(config.x[v, 0]),
                "y": float(config.x[v, 1]),
                "z_blue": float(config.z_blue[v]),
                "z_red": float(config.z_red[v]),
                "sign": int(system.sign[v]),
            }
            for v in range(system.n_vertices)
        ],
    }
    if system.kind == "entangled-graph":
        payload["edges"] = [
            {"u": int(u), "v": int(v), "shift": [int(sx), int(sy)]} for u, v, (sx, sy) in system.edges
        ]
    else:
        payload["threads"] = [
            {"family": family, "index": index, "vertices": [int(v) for v in thread], "wrap_shift": shift}
            for family, threads, shift in (
                ("blue", system.blue_threads, [1, 0]),
                ("red", system.red_threads, [0, 1]),
            )
            for index, thread in enumerate(threads, 1)
        ]
    return json.dumps(payload, indent=2) + "\n"


def test_configuration_json_is_the_json_dumps_text(tmp_path):
    """The template writer gives the bytes of json.dumps(payload, indent=2)
    on every bundled design, on generated weaves (1-thread families
    included, integer spacing) and graphs (one without edges), with a -0.0
    height, and with non-finite heights, which JSON spells NaN and
    Infinity."""
    rng = np.random.default_rng(23)
    systems = [load_system(name) for name in GRAPH_DESIGNS + WEAVE_DESIGNS]
    for n_blue, n_red in [(1, 1), (1, 3), (3, 1), (2, 5), (7, 4), (12, 12)]:
        sign = tuple(tuple(int(s) for s in rng.choice([-1, 1], size=n_red)) for _ in range(n_blue))
        systems.append(build_weave_system(WeaveDesign(n_blue, n_red, sign, spacing=int(rng.integers(1, 4)))))
    systems += [random_graph_system(rng) for _ in range(6)]
    lone = PeriodicQuotientGraph(n_vertices=1, edges=(), lattice_basis=((2, 0), (0.5, 3)))
    systems.append(build_entangled_system(lone, (1,)))
    out = tmp_path / "config.json"
    for k, system in enumerate(systems):
        config = random_initial_configuration(system, seed=k)
        zero, odd = config.z_blue.copy(), config.z_red.copy()
        zero[0] = -0.0
        odd[0], odd[-1] = np.nan, (np.inf, -np.inf)[k % 2]
        for z_blue, z_red in [(config.z_blue, config.z_red), (zero, config.z_red), (config.z_blue, odd)]:
            c = Configuration(x=config.x, z_blue=z_blue, z_red=z_red)
            write_configuration_json(out, system, c)
            text = out.read_bytes()
            assert text == reference_json(system, c).encode()
            assert (b'"z_blue": -0.0,' in text) == (z_blue is zero)
