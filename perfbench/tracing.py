"""Spans and counters for the traced run, recorded from outside the package.

The tracer rebinds the names that ``tangleflow.cli``, ``tangleflow.designio``,
``tangleflow.dynamics`` and ``tangleflow.analysis`` import from sibling
modules, so every call that crosses a layer boundary opens a span.  Nothing
in the package changes; ``uninstall`` puts the original names back.

Step counters come from counting calls to the two module-level functions
``integrate`` uses, ``_velocity`` and ``_guard_reason``.  Per integrate call
the velocity is evaluated 1 + 3 * attempts + accepted times, and the guard
once per attempt.  These are the only private names touched; if either is
gone, the step counters are reported as missing (None), never as 0.
"""
from __future__ import annotations

import importlib
import os
import time

# (module, attribute) -> span name; the span's layer is the part before the dot
SPANS = {
    ("tangleflow.cli", "load_design"): "designio.load_design",
    ("tangleflow.cli", "design_to_system"): "designio.design_to_system",
    ("tangleflow.cli", "write_trajectory_csv"): "designio.write_trajectory_csv",
    ("tangleflow.cli", "write_configuration_json"): "designio.write_configuration_json",
    ("tangleflow.cli", "integrate"): "dynamics.integrate",
    ("tangleflow.cli", "energy_entangled"): "dynamics.energy",
    ("tangleflow.cli", "energy_weave"): "dynamics.energy",
    ("tangleflow.cli", "eigendecompose"): "analysis.eigendecompose",
    ("tangleflow.cli", "commutation_check"): "analysis.commutation_check",
    ("tangleflow.cli", "separation_series"): "analysis.separation_series",
    ("tangleflow.cli", "fit_power_law"): "analysis.fit_power_law",
    ("tangleflow.cli", "compare_limits"): "analysis.compare_limits",
    ("tangleflow.cli", "random_initial_configuration"): "model.random_initial_configuration",
    ("tangleflow.cli", "classify_entangled_graph"): "topology.classify_entangled_graph",
    ("tangleflow.cli", "is_entangled"): "topology.is_entangled",
    ("tangleflow.cli", "tangle_decomposition"): "topology.tangle_decomposition",
    ("tangleflow.designio", "build_entangled_system"): "model.build_system",
    ("tangleflow.designio", "build_weave_system"): "model.build_system",
    ("tangleflow.dynamics", "tangle_decomposition"): "topology.tangle_decomposition",
    ("tangleflow.analysis", "tangle_decomposition"): "topology.tangle_decomposition",
    ("tangleflow.analysis", "classify_entangled_graph"): "topology.classify_entangled_graph",
}
COUNTED = ("_velocity", "_guard_reason")  # in tangleflow.dynamics
LAYERS = ("dynamics", "analysis", "topology", "designio", "model")

# per-call means over the span's full duration: metric -> (span, scale)
PER_CALL = {
    "analysis.eigendecompose.ms": ("analysis.eigendecompose", 1e3),
    "analysis.commutation_check.ms": ("analysis.commutation_check", 1e3),
    "analysis.separation_series.ms": ("analysis.separation_series", 1e3),
    "analysis.fit_power_law.ms": ("analysis.fit_power_law", 1e3),
    "analysis.compare_limits.ms": ("analysis.compare_limits", 1e3),
    "topology.tangle_decomposition.ms": ("topology.tangle_decomposition", 1e3),
    "topology.classify_entangled_graph.us": ("topology.classify_entangled_graph", 1e6),
    "topology.is_entangled.us": ("topology.is_entangled", 1e6),
    "designio.load_design.ms": ("designio.load_design", 1e3),
    "designio.design_to_system.ms": ("designio.design_to_system", 1e3),
    "designio.write_trajectory_csv.ms": ("designio.write_trajectory_csv", 1e3),
    "designio.write_configuration_json.ms": ("designio.write_configuration_json", 1e3),
    "model.build_system.ms": ("model.build_system", 1e3),
    "model.random_initial_configuration.us": ("model.random_initial_configuration", 1e6),
}
COUNTERS = (
    "dynamics.integrate.calls",
    "dynamics.accepted_steps",
    "dynamics.rejected_steps",
    "dynamics.velocity_evals",
    "dynamics.samples",
    "topology.tangle_decomposition.calls",
    "designio.bytes_written",
)


class Tracer:
    """Spans of one traced pass, kept in memory.  A span is
    [name, start, end, parent index, operation id]; every span opened under
    one root span (one ``cli.main`` call) shares its operation id."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.counts.update({"dynamics.samples": 0, "designio.bytes_written": 0})
        self.missing = []
        self._stack = []
        self._next_op = 0
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                op = self._next_op
                self._next_op += 1
            else:
                op = spans[parent][4]
            index = len(spans)
            record = [name, 0.0, 0.0, parent, op]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            self._after(name, args, result)
            return result

        return traced

    def _after(self, name, args, result):
        if name == "dynamics.integrate":
            self.counts["dynamics.samples"] += len(result.samples)
        elif name.startswith("designio.write_"):
            self.counts["designio.bytes_written"] += os.path.getsize(args[0])

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for (module_name, attr), span in SPANS.items():
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            else:
                self.missing.append(f"{module_name}.{attr}")
        dynamics = importlib.import_module("tangleflow.dynamics")
        for attr in COUNTED:
            if hasattr(dynamics, attr):
                original = getattr(dynamics, attr)
                self._saved.append((dynamics, attr, original))
                setattr(dynamics, attr, self._count(attr, original))
            else:
                self.missing.append(f"tangleflow.dynamics.{attr}")

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _missing_span(self, span):
        bound = [key for key, name in SPANS.items() if name == span]
        return all(f"{m}.{a}" in self.missing for m, a in bound)

    def metrics(self):
        """Per-layer numbers of this pass.  Times are in the unit the metric
        name states; counters are exact; a metric whose hook is gone is None."""
        calls, total, self_time = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, _parent, _op), inner in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)

        out = {}
        for metric, (span, scale) in PER_CALL.items():
            n = calls.get(span, 0)
            out[metric] = None if self._missing_span(span) else (total[span] / n * scale if n else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((t for name, t in self_time.items() if name.split(".")[0] == layer), 0.0)
        n_ops = calls.get("cli.main", 0)
        out["cli.self_ms"] = self_time.get("cli.main", 0.0) / n_ops * 1e3 if n_ops else 0.0
        integrate_self = self_time.get("dynamics.integrate", 0.0)
        n_integrate = calls.get("dynamics.integrate", 0)
        out["dynamics.integrate.self_s"] = integrate_self
        out["dynamics.integrate.calls"] = n_integrate
        out["dynamics.samples"] = self.counts["dynamics.samples"]
        out["topology.tangle_decomposition.calls"] = calls.get("topology.tangle_decomposition", 0)
        out["designio.bytes_written"] = self.counts["designio.bytes_written"]
        if any(f"tangleflow.dynamics.{attr}" in self.missing for attr in COUNTED):
            for metric in ("accepted_steps", "rejected_steps", "velocity_evals", "us_per_step"):
                out[f"dynamics.{metric}"] = None
        else:
            evals, attempts = self.counts["_velocity"], self.counts["_guard_reason"]
            accepted = evals - n_integrate - 3 * attempts
            out["dynamics.accepted_steps"] = accepted
            out["dynamics.rejected_steps"] = attempts - accepted
            out["dynamics.velocity_evals"] = evals
            out["dynamics.us_per_step"] = integrate_self / accepted * 1e6 if accepted else 0.0
        return out
