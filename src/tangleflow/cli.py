"""Command-line interface.

Subcommands: classify, relax, scaling, spectrum, verify.  Exit codes: 0 on
success, 1 when a run or invariant fails (including handing an entangled
design to `scaling`), 2 for usage, parse, and file errors.  Set
TANGLEFLOW_LOG=quiet|info|debug to control diagnostic logging on stderr;
stdout carries only the results.
"""
from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from .analysis import (
    commutation_check,
    compare_limits,
    eigendecompose,
    fit_power_law,
    separation_series,
    weave_spectrum,
)
from .designio import (
    _g17,
    design_to_system,
    load_design,
    write_configuration_json,
    write_trajectory_csv,
)
from .dynamics import FlowParams, integrate
from .errors import (
    DesignSemanticError,
    DesignSyntaxError,
    EntangledInput,
    InsufficientSamples,
    InvalidParameter,
    IoError,
    TangleflowError,
    UsageError,
)
from .model import random_initial_configuration
from .topology import classify_entangled_graph, is_entangled, tangle_decomposition

__all__ = ["main"]

_LOG = logging.getLogger("tangleflow")

_LOG_LEVELS = {
    "quiet": logging.CRITICAL + 10,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _load_system(path):
    design = load_design(path)
    _LOG.info("loaded design %s", path)
    try:
        return design_to_system(design)
    except TangleflowError as exc:  # a design that parses but is no valid system
        raise DesignSemanticError(str(exc)) from None


def _flow_params(args) -> FlowParams:
    # the flow options this subcommand's parser has, each with its default there
    try:
        return FlowParams(**{k: v for k, v in vars(args).items() if k in ("dt_init", "t_max", "grad_tol")})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _initial_configuration(system, seed):
    try:
        return random_initial_configuration(system, seed=seed)
    except InvalidParameter as exc:
        raise UsageError(str(exc)) from None


def _cmd_classify(args) -> int:
    system = _load_system(args.design)
    if system.kind == "entangled-graph":
        verdict = classify_entangled_graph(system)
        _LOG.debug("crossing map values: %s", sorted(set(int(s) for s in system.sign)))
        print(verdict.value)
        return 0
    decomposition = tangle_decomposition(system)
    _LOG.debug(
        "%d tangle component(s), order_ambiguous=%s",
        decomposition.k,
        decomposition.order_ambiguous,
    )
    label = "entangled" if decomposition.k == 1 else "untangled"
    parts = []
    for index, comp in enumerate(decomposition.components, 1):
        blue = ",".join(f"b{i}" for i in comp.blue) or "-"
        red = ",".join(f"r{j}" for j in comp.red) or "-"
        parts.append(f"W{index}={{{blue}|{red}}}")
    print(f"{label}, K={decomposition.k}: " + ", ".join(parts))
    return 0


def _cmd_relax(args) -> int:
    system = _load_system(args.design)
    params = _flow_params(args)
    config = _initial_configuration(system, args.seed)
    _LOG.info("integrating to t_max=%g", params.t_max)
    trajectory = integrate(system, config, params)
    _LOG.debug("%d samples recorded", len(trajectory.t))
    print(f"status {trajectory.status}")
    print(f"t_final {_g17(trajectory.t[-1])}")
    print(f"energy {_g17(trajectory.energy[-1])}")
    print(f"grad_norm {_g17(trajectory.grad_norm[-1])}")
    if args.out_traj:
        write_trajectory_csv(args.out_traj, trajectory)
        _LOG.info("wrote trajectory CSV to %s", args.out_traj)
    if args.out_config:
        write_configuration_json(args.out_config, system, trajectory.configuration())
        _LOG.info("wrote configuration JSON to %s", args.out_config)
    return 0


def _cmd_scaling(args) -> int:
    system = _load_system(args.design)
    # check before integrating: entangled systems never separate, and the
    # default horizon is far too long to discover that the hard way
    if is_entangled(system):
        raise EntangledInput(
            "scaling requires an untangled design; this one is entangled"
        )
    params = _flow_params(args)
    config = _initial_configuration(system, args.seed)
    _LOG.info("integrating to t_max=%g", params.t_max)
    trajectory = integrate(system, config, params)
    window = (params.t_max / 10.0, params.t_max)
    t_final = float(trajectory.t[-1])
    if trajectory.status == "converged" and t_final < window[0]:
        # the flow stops once its velocity is below grad_tol, so no longer
        # horizon puts a sample in this window
        raise UsageError(
            f"the flow converged at t={_g17(t_final)}, before the fit window "
            f"[{window[0]!r}, {window[1]!r}]; use a shorter --t-max"
        )
    for series in separation_series(trajectory):
        # the steps taken set the sample count, so it is known only now; all
        # series share the sample times, so only the first fit can raise
        try:
            report = fit_power_law(series, window)
        except InsufficientSamples as exc:
            raise UsageError(f"{exc}; use a longer --t-max") from None
        print(
            f"{series.name} slope={_g17(report.slope)} "
            f"intercept={_g17(report.intercept)} "
            f"r_squared={_g17(report.r_squared)} "
            f"window={_g17(window[0])}..{_g17(window[1])}"
        )
    return 0


def _cmd_spectrum(args) -> int:
    system = _load_system(args.design)
    if system.kind == "weave":
        # a Kronecker sum of two thread cycles: neither the closed-form
        # spectrum nor the edge-list commutator builds an n x n matrix
        values = weave_spectrum(system)
        tail = [f"commutator_norm {_g17(commutation_check(system))}"]
    else:
        values, tail = eigendecompose(system.laplacian).eigenvalues, []
    lines = [f"eigenvalue {_g17(value)}" for value in values] + tail
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    system = _load_system(args.design)
    params = _flow_params(args)
    trajectory = integrate(system, random_initial_configuration(system, seed=1), params)
    n, heights = system.n_vertices, trajectory.heights
    # the first sample holds the initial heights and their energy
    e0 = float(trajectory.energy[0])
    sums = np.add.reduce(heights[:, :n] + heights[:, n:], axis=1)

    failures = []

    def report(name, ok, detail=""):
        if ok:
            print(f"{name} ok")
        else:
            print(f"{name} FAIL{': ' + detail if detail else ''}")
            failures.append(name)

    energies = trajectory.energy
    report("energy_monotone", bool(np.all(energies[1:] <= energies[:-1] + 1e-12 * abs(e0))))
    drift = float(np.max(np.abs(sums - sums[0]) / (1.0 + trajectory.t)))
    report("barycenter_conserved", drift <= 1e-8, f"relative drift {drift:.3e}")
    floor = params.gap_safety / e0
    report("gap_floor", bool(np.all(trajectory.min_gap >= floor)), f"floor {floor:.3e}")
    report("signs_preserved", bool(np.all(np.sign(heights[:, :n] - heights[:, n:]) == system.sign)))

    # the second seed is only compared with a converged first run
    both_converged = trajectory.status == "converged"
    if both_converged:
        second = integrate(system, random_initial_configuration(system, seed=2), params)
        both_converged = second.status == "converged"
    if both_converged:
        within, residual = compare_limits(trajectory, second, tol=1e-4)
        report("unique_limit", within, f"residual {residual:.3e}")
    else:
        print("unique_limit skipped (no converged limit inside t_max)")

    if failures:
        print(f"error: verification failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing fills a new
    namespace on every call, so no value carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="tangleflow",
        description="Relax and classify periodic entangled graphs and weaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the topological classification")
    p.add_argument("design", help="design file (.graph or .weave)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("relax", help="integrate the descent flow")
    p.add_argument("design")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=FlowParams.t_max)
    p.add_argument("--grad-tol", type=float, default=FlowParams.grad_tol)
    p.add_argument("--dt-init", type=float, default=FlowParams.dt_init)
    p.add_argument("--out-traj", default=None, help="write trajectory CSV here")
    p.add_argument("--out-config", default=None, help="write final configuration JSON here")
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("scaling", help="fit the separation growth law")
    p.add_argument("design")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=1e5)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("spectrum", help="print Laplacian eigenvalues")
    p.add_argument("design")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the invariant suite on a design")
    p.add_argument("design")
    p.add_argument("--t-max", type=float, default=50.0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("TANGLEFLOW_LOG", "quiet").strip().lower()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    _LOG.addHandler(handler)
    _LOG.setLevel(_LOG_LEVELS.get(level_name, _LOG_LEVELS["quiet"]))
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code == 0 else 2
        try:
            return args.func(args)
        except (DesignSyntaxError, DesignSemanticError, IoError, UsageError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TangleflowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        _LOG.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
