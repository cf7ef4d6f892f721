"""Command-line interface.

Subcommands: classify, relax, scaling, spectrum, verify.  Exit codes: 0 on
success, 1 when a run or invariant fails (including handing an entangled
design to `scaling`), 2 for usage, parse, and file errors.  Set
TANGLEFLOW_LOG=quiet|info|debug to control diagnostic logging on stderr;
stdout carries only the results.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .analysis import commutation_check, compare_limits, eigendecompose, fit_power_law, separation_series
from .designio import (
    _g17,
    design_to_system,
    load_design,
    write_configuration_json,
    write_trajectory_csv,
)
from .dynamics import FlowParams, energy_entangled, energy_weave, integrate
from .errors import (
    DesignSemanticError,
    DesignSyntaxError,
    EntangledInput,
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


def _flow_params(args, default_t_max) -> FlowParams:
    defaults = FlowParams()
    try:
        return FlowParams(
            dt_init=args.dt_init if getattr(args, "dt_init", None) is not None else defaults.dt_init,
            t_max=args.t_max if args.t_max is not None else default_t_max,
            grad_tol=args.grad_tol if getattr(args, "grad_tol", None) is not None else defaults.grad_tol,
        )
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
    params = _flow_params(args, default_t_max=FlowParams().t_max)
    config = _initial_configuration(system, args.seed)
    _LOG.info("integrating to t_max=%g", params.t_max)
    trajectory = integrate(system, config, params)
    final = trajectory.samples[-1]
    _LOG.debug("%d samples recorded", len(trajectory.samples))
    print(f"status {trajectory.status}")
    print(f"t_final {_g17(final.t)}")
    print(f"energy {_g17(final.energy)}")
    print(f"grad_norm {_g17(final.grad_norm)}")
    if args.out_traj:
        write_trajectory_csv(args.out_traj, trajectory)
        _LOG.info("wrote trajectory CSV to %s", args.out_traj)
    if args.out_config:
        write_configuration_json(args.out_config, system, final.config)
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
    params = _flow_params(args, default_t_max=1e5)
    config = _initial_configuration(system, args.seed)
    _LOG.info("integrating to t_max=%g", params.t_max)
    trajectory = integrate(system, config, params)
    window = (params.t_max / 10.0, params.t_max)
    for series in separation_series(trajectory):
        report = fit_power_law(series, window)
        print(
            f"{series.name} slope={_g17(report.slope)} "
            f"intercept={_g17(report.intercept)} "
            f"r_squared={_g17(report.r_squared)} "
            f"window={_g17(window[0])}..{_g17(window[1])}"
        )
    return 0


def _cmd_spectrum(args) -> int:
    system = _load_system(args.design)
    data = eigendecompose(system.laplacian)
    for value in data.eigenvalues:
        print(f"eigenvalue {_g17(value)}")
    if system.kind == "weave":
        print(f"commutator_norm {_g17(commutation_check(system))}")
    return 0


def _cmd_verify(args) -> int:
    system = _load_system(args.design)
    params = _flow_params(args, default_t_max=50.0)
    energy_fn = energy_entangled if system.kind == "entangled-graph" else energy_weave

    config = random_initial_configuration(system, seed=1)
    e0 = energy_fn(system, config)
    m0 = float(np.sum(config.z_blue + config.z_red))
    trajectory = integrate(system, config, params)
    samples = trajectory.samples

    failures = []

    def report(name, ok, detail=""):
        if ok:
            print(f"{name} ok")
        else:
            print(f"{name} FAIL{': ' + detail if detail else ''}")
            failures.append(name)

    energies = [s.energy for s in samples]
    report(
        "energy_monotone",
        all(b <= a + 1e-12 * abs(e0) for a, b in zip(energies, energies[1:])),
    )
    drift = max(
        abs(float(np.sum(s.config.z_blue + s.config.z_red)) - m0)
        / (1.0 + s.t)
        for s in samples
    )
    report("barycenter_conserved", drift <= 1e-8, f"relative drift {drift:.3e}")
    floor = params.gap_safety / e0
    report(
        "gap_floor",
        all(s.min_gap >= floor for s in samples),
        f"floor {floor:.3e}",
    )
    report(
        "signs_preserved",
        all(
            bool(np.all(np.sign(s.config.z_blue - s.config.z_red) == system.sign))
            for s in samples
        ),
    )

    second = integrate(system, random_initial_configuration(system, seed=2), params)
    if trajectory.status == "converged" and second.status == "converged":
        within, residual = compare_limits(trajectory, second, tol=1e-4)
        report("unique_limit", within, f"residual {residual:.3e}")
    else:
        print("unique_limit skipped (no converged limit inside t_max)")

    if failures:
        print(f"error: verification failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--grad-tol", type=float, default=None)
    p.add_argument("--dt-init", type=float, default=None)
    p.add_argument("--out-traj", default=None, help="write trajectory CSV here")
    p.add_argument("--out-config", default=None, help="write final configuration JSON here")
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("scaling", help="fit the separation growth law")
    p.add_argument("design")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=None)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("spectrum", help="print Laplacian eigenvalues")
    p.add_argument("design")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the invariant suite on a design")
    p.add_argument("design")
    p.add_argument("--t-max", type=float, default=None)
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
