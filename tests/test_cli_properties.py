"""Property test of the command line: any argv built from the real
subcommands and flags ends with exit 0, 1 or 2 and never a traceback."""
from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import DESIGN_DIR  # noqa: E402
from tangleflow.cli import main  # noqa: E402

VALUES = ("-5", "0", "nan", "inf", "1e-9", "0.5", "5")
DESIGNS = ("entangled_pair.graph", "untangled_pair.graph", "split_2x2.weave", "missing.graph")
# flags each subcommand takes besides the design; every integrating command
# always gets a --t-max from VALUES, since the default horizons (1e4 for relax,
# 1e5 for scaling) take seconds to minutes per run
FLOW_FLAGS = {
    "classify": (),
    "spectrum": (),
    "relax": ("--grad-tol", "--dt-init"),
    "scaling": (),
    "verify": (),
}
SEEDED = ("relax", "scaling")
OUTPUTS = (None, "ok", "missing")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLOW_FLAGS)))
    argv = [command, str(DESIGN_DIR / draw(st.sampled_from(DESIGNS)))]
    if command in ("relax", "scaling", "verify"):
        argv += ["--t-max", draw(st.sampled_from(VALUES))]
    for flag in FLOW_FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(VALUES))]
    if command in SEEDED and draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-3, 20)))]
    outputs = {}
    if command == "relax":
        outputs = {flag: draw(st.sampled_from(OUTPUTS)) for flag in ("--out-traj", "--out-config")}
    return argv, outputs


@settings(max_examples=100, deadline=None, database=None)
@given(argvs())
def test_any_cli_argv_exits_0_1_or_2_without_traceback(case):
    argv, outputs = case
    with tempfile.TemporaryDirectory() as tmp:
        for flag, where in outputs.items():
            if where is not None:
                argv = argv + [flag, str(Path(tmp, "missing" if where == "missing" else "", flag[2:]))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert "error" in err.getvalue()
