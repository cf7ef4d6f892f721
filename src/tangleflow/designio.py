"""Design-file grammar, serialization, and result writers.

A design file is a sequence of directive lines; '#' starts a comment and
blank lines are ignored.  The first directive must be `kind`, which selects
the grammar:

    kind entangled-graph          kind weave
    vertices N                    threads NB NR
    lattice a b c d               spacing S
    edge U V SX SY   (repeated)   sign +/- ... (NB rows of NR entries)
    sign +/- ...     (one row)

Malformed tokens and unknown directives are syntax errors carrying the
1-based line and column of the offending token; structurally invalid but
well-formed input (wrong counts, bad ranges, zero signs) is a semantic
error.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import DesignSemanticError, DesignSyntaxError, IoError, WrongKind
from .model import (
    GraphDesign,
    PeriodicQuotientGraph,
    WeaveDesign,
    build_entangled_system,
    build_weave_system,
)

__all__ = [
    "parse_design",
    "serialize_design",
    "load_design",
    "design_to_system",
    "write_trajectory_csv",
    "write_configuration_json",
]

_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?\d+\Z")
_SIGNS = {"+": 1, "-": -1}


def _tokenize(text):
    """Per line with tokens: (line number, the text before any '#', its
    whitespace-separated tokens)."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        content = raw.split("#", 1)[0]
        tokens = content.split()
        if tokens:
            rows.append((line_no, content, tokens))
    return rows


def _syntax_error(row, index, message):
    """A DesignSyntaxError at the row's index-th token.  `str.split` and
    `\\S+` split alike, so the token's column is found again only here."""
    line_no, content, _ = row
    match = next(itertools.islice(_TOKEN.finditer(content), index, None))
    return DesignSyntaxError(line_no, match.start() + 1, message)


def _parse_int(row, index):
    text = row[2][index]
    if not _INT.match(text):
        raise _syntax_error(row, index, f"expected an integer, got {text!r}")
    return int(text)


def _parse_float(row, index):
    text = row[2][index]
    try:
        value = float(text)
    except ValueError:
        raise _syntax_error(row, index, f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise _syntax_error(row, index, f"expected a finite number, got {text!r}")
    return value


def _parse_sign(row, index):
    text = row[2][index]
    if text in _SIGNS:
        return _SIGNS[text]
    if _INT.match(text):
        value = int(text)
        if value in (1, -1):
            return value
        raise DesignSemanticError(f"sign entries must be + or -, got {text!r}")
    raise _syntax_error(row, index, f"expected a sign entry (+ or -), got {text!r}")


def _parse_kind(row, index):
    text = row[2][index]
    if text not in ("entangled-graph", "weave"):
        raise _syntax_error(row, index, f"kind must be entangled-graph or weave, got {text!r}")
    return text


# per directive: the kind it belongs to (None: either), its value count
# (None: one or more) and the parser of each value
_GRAMMAR = {
    "kind": (None, 1, _parse_kind),
    "vertices": ("entangled-graph", 1, _parse_int),
    "lattice": ("entangled-graph", 4, _parse_float),
    "edge": ("entangled-graph", 4, _parse_int),
    "sign": (None, None, _parse_sign),
    "threads": ("weave", 2, _parse_int),
    "spacing": ("weave", 1, _parse_float),
}


def parse_design(text):
    """Parse design text into a GraphDesign or WeaveDesign."""
    rows = _tokenize(text)
    if not rows:
        raise DesignSemanticError("empty design: the kind directive is missing")

    kind = None
    found = {}  # directive -> the value tuple of each of its rows
    for position, row in enumerate(rows):
        tokens = row[2]
        directive = tokens[0]
        if directive not in _GRAMMAR:
            raise _syntax_error(row, 0, f"unknown directive {directive!r}")
        if position == 0 and directive != "kind":
            raise DesignSemanticError("the first directive must be kind")
        owner, count, parse = _GRAMMAR[directive]
        if owner and owner != kind:
            raise DesignSemanticError(f"directive {directive!r} is not valid for kind {kind!r}")
        # the directive's values are tokens 1..n
        n = len(tokens) - 1
        if count is None:  # sign rows: one or more entries, repeated
            if not n:
                raise _syntax_error(row, 0, f"directive {directive!r} needs at least one entry")
            values = [_SIGNS.get(text) for text in tokens[1:]]
            if None in values:  # an entry other than + or -: parse each in order
                values = [parse(row, k) for k in range(1, n + 1)]
        else:
            if n != count:
                raise _syntax_error(
                    row, 0, f"directive {directive!r} takes {count} value(s), got {n}"
                )
            if directive in found and directive != "edge":  # edge rows repeat
                raise DesignSemanticError(f"duplicate {directive} directive")
            values = [parse(row, k) for k in range(1, n + 1)]
        found.setdefault(directive, []).append(tuple(values))
        if directive == "kind":
            kind = values[0]

    if kind == "entangled-graph":
        return _assemble_graph(found)
    return _assemble_weave(found)


def _assemble_graph(found):
    for directive in ("vertices", "lattice", "sign"):
        if directive not in found:
            raise DesignSemanticError(f"missing {directive} directive")
    if len(found["sign"]) != 1:
        raise DesignSemanticError(f"a graph design takes one sign line, got {len(found['sign'])}")
    [(n,)], [(a, b, c, d)], [sign] = found["vertices"], found["lattice"], found["sign"]
    if n < 1:
        raise DesignSemanticError(f"vertex count must be positive, got {n}")
    if len(sign) != n:
        raise DesignSemanticError(f"sign line has {len(sign)} entries for {n} vertices")
    edges = tuple([(u, v, (sx, sy)) for u, v, sx, sy in found.get("edge", ())])
    for u, v, _shift in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DesignSemanticError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
    graph = PeriodicQuotientGraph(n_vertices=n, edges=edges, lattice_basis=((a, b), (c, d)))
    return GraphDesign(graph=graph, sign=sign)


def _assemble_weave(found):
    for directive in ("threads", "spacing"):
        if directive not in found:
            raise DesignSemanticError(f"missing {directive} directive")
    [(n_blue, n_red)], [(spacing,)] = found["threads"], found["spacing"]
    if n_blue < 1 or n_red < 1:
        raise DesignSemanticError(f"thread counts must be positive, got {n_blue} and {n_red}")
    sign_rows = tuple(found.get("sign", ()))
    if len(sign_rows) != n_blue:
        raise DesignSemanticError(f"expected {n_blue} sign rows, got {len(sign_rows)}")
    for i, row in enumerate(sign_rows):
        if len(row) != n_red:
            raise DesignSemanticError(f"sign row {i + 1} has {len(row)} entries, expected {n_red}")
    if not spacing > 0:
        raise DesignSemanticError(f"spacing must be positive, got {spacing!r}")
    return WeaveDesign(n_blue=n_blue, n_red=n_red, sign=sign_rows, spacing=spacing)


def _g17(value) -> str:
    return format(float(value), ".17g")


def _sign_token(value) -> str:
    return "+" if value == 1 else "-"


def serialize_design(design) -> str:
    """Canonical text for a design; parse_design inverts it exactly."""
    if isinstance(design, GraphDesign):
        graph = design.graph
        lines = [
            "kind entangled-graph",
            f"vertices {graph.n_vertices}",
            "lattice "
            + " ".join(_g17(x) for row in graph.lattice_basis for x in row),
        ]
        for u, v, (sx, sy) in graph.edges:
            lines.append(f"edge {u} {v} {sx} {sy}")
        lines.append("sign " + " ".join(_sign_token(s) for s in design.sign))
    elif isinstance(design, WeaveDesign):
        lines = [
            "kind weave",
            f"threads {design.n_blue} {design.n_red}",
            f"spacing {_g17(design.spacing)}",
        ]
        for row in design.sign:
            lines.append("sign " + " ".join(_sign_token(s) for s in row))
    else:
        raise WrongKind(f"not a design: {design!r}")
    return "\n".join(lines) + "\n"


def load_design(path):
    """Read and parse a design file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read design file {path}: {exc}") from None
    return parse_design(text)


def design_to_system(design):
    """Build the runnable system for a parsed design."""
    if isinstance(design, GraphDesign):
        return build_entangled_system(design.graph, design.sign)
    if isinstance(design, WeaveDesign):
        return build_weave_system(design)
    raise WrongKind(f"not a design: {design!r}")


def write_trajectory_csv(path, trajectory):
    """Write samples as CSV: 17-significant-digit cells, '\\n' line endings.

    Columns: t, energy, grad_norm, min_gap, M_B, M_R, then one M_W column per
    tangle component for weave runs.
    """
    components = trajectory.m_components
    rows = np.column_stack((
        trajectory.t, trajectory.energy, trajectory.grad_norm, trajectory.min_gap,
        trajectory.m_blue, trajectory.m_red, components,
    )).tolist()
    header = "t,energy,grad_norm,min_gap,M_B,M_R" + "".join(
        f",M_W{i}" for i in range(1, components.shape[1] + 1)
    )
    lines = [header] + [",".join(map(_g17, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n", "trajectory CSV")


# the layout json.dumps(payload, indent=2) gives one vertex, edge or thread
# record of the configuration JSON, at its depth in the file
_VERTEX_JSON = """\
    {
      "x": %s,
      "y": %s,
      "z_blue": %s,
      "z_red": %s,
      "sign": %d
    }"""
_EDGE_JSON = """\
    {
      "u": %d,
      "v": %d,
      "shift": [
        %d,
        %d
      ]
    }"""
_THREAD_JSON = """\
    {
      "family": "%s",
      "index": %d,
      "vertices": [
        %s
      ],
      "wrap_shift": [
        %s
      ]
    }"""


def _json_floats(values) -> list:
    """The texts json.dumps gives the floats in values: each one's repr, or
    NaN, Infinity and -Infinity."""
    values = [float(x) for x in values]
    if all(map(math.isfinite, values)):
        return list(map(repr, values))
    return list(map(json.dumps, values))


def _json_list(records) -> str:
    """A top-level key's JSON list of records laid out by the templates."""
    if not records:
        return "[]"
    return "[\n" + ",\n".join(records) + "\n  ]"


def write_configuration_json(path, system, config):
    """Write one configuration as JSON: per-vertex records plus the edge list
    (graphs) or thread polylines with their wrap shifts (weaves).  The text
    is json.dumps(payload, indent=2) of the record dicts, byte for byte,
    laid out from fixed templates."""
    rows = [
        "    [\n      " + ",\n      ".join(_json_floats(row)) + "\n    ]" for row in system.lattice_basis
    ]
    vertices = [
        _VERTEX_JSON % fields
        for fields in zip(
            _json_floats(config.x[:, 0].tolist()),
            _json_floats(config.x[:, 1].tolist()),
            _json_floats(config.z_blue.tolist()),
            _json_floats(config.z_red.tolist()),
            system.sign.tolist(),
        )
    ]
    parts = [
        "{\n" f'  "kind": {json.dumps(system.kind)},\n'
        f'  "lattice_basis": {_json_list(rows)},\n'
        f'  "vertices": {_json_list(vertices)},\n'
    ]
    if system.kind == "entangled-graph":
        edges = [_EDGE_JSON % (u, v, sx, sy) for u, v, (sx, sy) in system.edges]
        parts.append(f'  "edges": {_json_list(edges)}\n')
    else:
        threads = [
            _THREAD_JSON % (family, index, ",\n        ".join(map(str, thread)), shift)
            for family, family_threads, shift in (
                ("blue", system.blue_threads, "1,\n        0"),
                ("red", system.red_threads, "0,\n        1"),
            )
            for index, thread in enumerate(family_threads, 1)
        ]
        parts.append(f'  "threads": {_json_list(threads)}\n')
    parts.append("}\n")
    _write_text(path, "".join(parts), "configuration JSON")


def _write_text(path, text, what):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {what} {path}: {exc}") from None
