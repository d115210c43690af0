"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces every public function of the package's modules
with a timing wrapper, at every module attribute that holds it: the module
that defines it and each module that imported the name (``scenario_sim`` and
``cli_io`` import the solver functions directly). The atmosphere's
``density`` method and the CLI's file writer are wrapped too, because the
per-layer counts (density points, bytes written) are taken there. Nothing in
the package is edited; ``uninstall`` restores every binding.

A span is (name id, start ns, end ns, parent span index, operation index).
Spans and counts stay in memory and are written to a sidecar file when the
run ends. A span's self time is its duration minus its direct children's.
Operations with a negative index are warm-up: their spans are kept and
their counts are not, and only the per-call metrics use them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

#: Package modules, i.e. the layers; the package import is its own layer.
LAYERS = ("cli_io", "scenario_sim", "climb_optimizer", "cost_index",
          "vehicle", "atmosphere")

# The per-cell number formatter runs ~600k times for one fine profile; a
# span per call would cost more than the formatting it measures, and its
# time is cli_io self time whether or not it has its own span.
_UNWRAPPED = {"cli_io.fmt"}


def _count_density(counts, args, out):
    counts["atmosphere.density_points"] += int(np.size(args[1]))


def _count_charge_rate(counts, args, out):
    counts["vehicle.charge_rate_points"] += int(np.broadcast(*args[:3]).size)


def _count_gradient(counts, args, out):
    counts["climb_optimizer.gradient_evals"] += int(np.size(args[0]))


def _count_solve(counts, args, out):
    counts["climb_optimizer.iterations"] += int(out.iterations)


def _count_scenario(counts, args, out):
    events = out.summary["events"]
    counts["scenario_sim.rows"] += len(out.samples)
    counts["scenario_sim.events"] += len(events)
    counts["scenario_sim.events_applied"] += sum(1 for e in events if e["applied"])


def _count_write(counts, args, out):
    counts["cli_io.bytes_written"] += len(args[1].encode("utf-8"))


_COUNTERS = {
    "atmosphere.density": _count_density,
    "vehicle.charge_rate": _count_charge_rate,
    "climb_optimizer.cost_gradient": _count_gradient,
    "climb_optimizer.solve_optimal_speed": _count_solve,
    "scenario_sim.run_scenario": _count_scenario,
    "cli_io._write_text": _count_write,
}


class Tracer:
    """Collects spans and counts while ``active``; see the module docstring."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self.active = False
        self._stack = []
        self._patches = []

    def name_id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, time.perf_counter_ns()

    def _close(self, nid, idx, t0):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (nid, t0, t1, parent, self.op)

    def _wrap(self, fn, name):
        nid = self.name_id(name)
        count = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, t0 = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(nid, idx, t0)
            if count is not None and tracer.op >= 0:
                count(tracer.counts, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """One span around a block of the benchmark's own code."""
        nid = self.name_id(name)
        idx, t0 = self._open()
        try:
            yield
        finally:
            self._close(nid, idx, t0)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("econclimb")
        modules = {layer: importlib.import_module(f"econclimb.{layer}")
                   for layer in LAYERS}
        owners = [package, *modules.values()]
        targets = []
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in _UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                targets.append((fn, name))
        targets.append((modules["cli_io"]._write_text, "cli_io._write_text"))
        for fn, name in targets:
            wrapper = self._wrap(fn, name)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, attr, wrapper)
        atmo = modules["atmosphere"]
        for cls in (atmo.AtmosphereModel, atmo.ConstantAtmosphere):
            self._patch(cls, "density",
                        self._wrap(cls.density, "atmosphere.density"))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self, path, extra):
        """Write names, spans and counts, plus ``extra`` fields, as JSON."""
        record = dict(extra, names=self.names, spans=self.spans,
                      counts=dict(self.counts))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


def percentile(values, q):
    """Linear-interpolated percentile; 0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(names, spans, counts, n_ops):
    """Per-layer metrics from spans and counts over ``n_ops`` operations.

    Times are milliseconds per operation and counts are per operation, both
    over the measured operations only. Config loading and calibration are
    reported in milliseconds per call over every traced call, warm-up
    included, because replan-storm's operations never call them. Returns
    (metrics, shares): ``metrics`` maps each name to (value, unit);
    ``shares`` maps each layer to its self time and to its inclusive time
    (outermost spans of the layer) as a share of the summed root-span time
    of the measured operations.
    """
    dur = np.array([s[2] - s[1] for s in spans], dtype=float) / 1e6
    nid = np.array([s[0] for s in spans], dtype=int)
    parent = np.array([s[3] for s in spans], dtype=int)
    measured = np.array([s[4] >= 0 for s in spans], dtype=bool)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ms = dur - child
    layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names],
                             dtype=int)
    layer_idx = layer_of_name[nid]

    def durations(name, warm_up=False):
        if name not in names:
            return dur[:0]
        return dur[(nid == names.index(name)) & (measured | warm_up)]

    def total(name):
        return float(durations(name).sum())

    def ms_per_call(*fn_names):
        calls = np.concatenate([durations(n, warm_up=True) for n in fn_names])
        return float(calls.mean()) if len(calls) else 0.0

    # Outermost span of its layer: no ancestor in the same layer.
    outermost = np.ones(len(spans), dtype=bool)
    for i in range(len(spans)):
        p = parent[i]
        while p >= 0:
            if layer_idx[p] == layer_idx[i]:
                outermost[i] = False
                break
            p = parent[p]
    root_ms = float(dur[~has_parent & measured].sum())
    shares = {}
    for k, layer in enumerate(LAYERS):
        in_layer = (layer_idx == k) & measured
        shares[layer] = {
            "self": float(self_ms[in_layer].sum()) / root_ms if root_ms else 0.0,
            "inclusive": (float(dur[in_layer & outermost].sum()) / root_ms
                          if root_ms else 0.0),
        }

    def layer_self(layer):
        return float(self_ms[(layer_idx == LAYERS.index(layer)) & measured].sum())

    def calls(name):
        return len(durations(name))

    per_op = 1.0 / max(n_ops, 1)
    solves = durations("climb_optimizer.solve_optimal_speed")
    grads = counts.get("climb_optimizer.gradient_evals", 0)
    events = counts.get("scenario_sim.events", 0)
    metrics = {
        "cli_io.load_config_ms": (ms_per_call("cli_io.load_config"), "ms/call"),
        "cli_io.build_scenario_ms": (ms_per_call("cli_io.build_scenario"), "ms/call"),
        "cli_io.self_ms": (layer_self("cli_io") * per_op, "ms/op"),
        "cli_io.bytes_written": (counts.get("cli_io.bytes_written", 0) * per_op, "bytes/op"),
        "scenario_sim.run_scenario_ms": (total("scenario_sim.run_scenario") * per_op, "ms/op"),
        "scenario_sim.self_ms": (layer_self("scenario_sim") * per_op, "ms/op"),
        "scenario_sim.rows": (counts.get("scenario_sim.rows", 0) * per_op, "rows/op"),
        "scenario_sim.events_applied_ratio": (
            counts.get("scenario_sim.events_applied", 0) / events if events else 0.0,
            "ratio"),
        "climb_optimizer.solve_calls": (len(solves) * per_op, "count/op"),
        "climb_optimizer.solve_ms_p50": (percentile(solves, 50), "ms"),
        "climb_optimizer.solve_ms_p99": (percentile(solves, 99), "ms"),
        "climb_optimizer.self_ms": (layer_self("climb_optimizer") * per_op, "ms/op"),
        "climb_optimizer.gradient_evals": (grads * per_op, "count/op"),
        "climb_optimizer.gradient_evals_per_solve": (
            grads / len(solves) if len(solves) else 0.0, "ratio"),
        "climb_optimizer.iterations": (
            counts.get("climb_optimizer.iterations", 0) * per_op, "count/op"),
        "climb_optimizer.segment_between_ms": (
            total("climb_optimizer.segment_between") * per_op, "ms/op"),
        "climb_optimizer.calibrate_ms": (
            ms_per_call("climb_optimizer.calibrate_ci_max",
                        "climb_optimizer.calibrate_ci_max_to_speed"), "ms/call"),
        "atmosphere.density_calls": (calls("atmosphere.density") * per_op, "count/op"),
        "atmosphere.density_points": (
            counts.get("atmosphere.density_points", 0) * per_op, "count/op"),
        "atmosphere.mean_ms": (
            (total("atmosphere.mean_density")
             + total("atmosphere.mean_inverse_density")) * per_op, "ms/op"),
        "vehicle.charge_rate_calls": (calls("vehicle.charge_rate") * per_op, "count/op"),
        "vehicle.charge_rate_points": (
            counts.get("vehicle.charge_rate_points", 0) * per_op, "count/op"),
        "vehicle.self_ms": (layer_self("vehicle") * per_op, "ms/op"),
        "cost_index.ci_at_calls": (calls("cost_index.ci_at") * per_op, "count/op"),
        "cost_index.ci_at_ms": (total("cost_index.ci_at") * per_op, "ms/op"),
    }
    return metrics, shares
