"""Outside-in trace of liouville_lab's layers, installed by the benchmark.

``Tracer.install()`` replaces the module attributes through which the
pipeline calls each layer with timing wrappers, so the traced operation
runs the very same CLI path with the program's source untouched.  Layer
calls become spans (name, start, end, parent, counter deltas); the hot
leaf calls -- the field's drift/diffusion, Philox substream creation and
the batched shifted square root -- only bump counters, because one span
per call would cost more than the call.  Everything stays in memory until
``Tracer.dump()`` writes the trace file when the operation ends.

``per_layer()`` turns one trace into the per-layer metrics declared in
BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time

# (module of liouville_lab, attribute) -> span name.  Each entry is a
# public layer function as seen from the module that calls it; a missing
# attribute makes install() raise, so a renamed call site fails loudly.
SPAN_SITES = {
    ("criterion", "estimate_ellipticity"): "ellipticity",
    ("cli", "estimate_ellipticity"): "ellipticity",
    ("criterion", "drift_dispersion"): "dispersion",
    ("criterion", "modulus"): "modulus",
    ("criterion", "build_g"): "build_g",
    ("criterion", "escape_integral_divergent"): "escape",
    ("report", "harmonic_1d"): "oracle",
    ("report", "simulate_coupling"): "coupling",
    ("cli", "simulate_coupling"): "coupling",
    ("report", "simulate_pair_trajectory"): "trajectory",
    ("cli", "emit"): "emit",
}

# Where fields are built: the built field gets counting drift/diffusion.
FIELD_SITES = (("report", "build_field"), ("cli", "build_field"))

# A private helper, counted only while it exists under this name; the
# sqrt_matrices metric reads 0 once a refactor moves it.
SQRT_SITE = ("coupling_sim", "_shifted_sqrt_batch")

COUNTERS = ("drift_calls", "drift_points", "drift_s",
            "diffusion_calls", "diffusion_points", "diffusion_s",
            "substream_calls", "substream_s", "sqrt_matrices")


def _span_info(name, args):
    """Work sizes a span needs for its per-radius / per-path-step ratios."""
    if name == "dispersion":
        return {"radii": len(args["radii"])}
    if name == "modulus":
        return {"radii": int(args["grid_size"])}
    if name == "coupling":
        cfg = args["cfg"]
        return {"path_steps_max": int(cfg.n_paths) * cfg.n_steps()}
    return {}


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def install(self):
        for (mod_name, attr), span in SPAN_SITES.items():
            mod = importlib.import_module(f"liouville_lab.{mod_name}")
            setattr(mod, attr, self._spanned(span, getattr(mod, attr)))
        for mod_name, attr in FIELD_SITES:
            mod = importlib.import_module(f"liouville_lab.{mod_name}")
            setattr(mod, attr, self._field_builder(getattr(mod, attr)))
        streams = importlib.import_module("liouville_lab._streams")
        streams.substream = self._counted("substream", streams.substream,
                                          points=False)
        mod = importlib.import_module(f"liouville_lab.{SQRT_SITE[0]}")
        sqrt = getattr(mod, SQRT_SITE[1], None)
        if sqrt is not None:
            setattr(mod, SQRT_SITE[1], self._sqrt_counter(sqrt))

    def _spanned(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec = {"name": name,
                   "parent": self.stack[-1] if self.stack else None,
                   "info": _span_info(name, bound.arguments)}
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            before = dict(self.counts)
            rec["t0"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec["t1"] = time.perf_counter()
                self.stack.pop()
                rec["counts"] = {k: self.counts[k] - before[k]
                                 for k in COUNTERS}
        return wrapper

    def _counted(self, key, fn, points=True):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            counts[key + "_s"] += time.perf_counter() - t0
            counts[key + "_calls"] += 1
            if points:
                counts[key + "_points"] += len(args[0])
            return out
        return wrapper

    def _field_builder(self, build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            field = build(*args, **kwargs)
            return dataclasses.replace(
                field, drift=self._counted("drift", field.drift),
                diffusion=self._counted("diffusion", field.diffusion))
        return wrapper

    def _sqrt_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(qs, *args, **kwargs):
            self.counts["sqrt_matrices"] += len(qs)
            return fn(qs, *args, **kwargs)
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def missing(trace, spans, counters):
    """Names among the required spans/counters that recorded no call."""
    fired = {s["name"] for s in trace["spans"]}
    out = [f"span {n}" for n in spans if n not in fired]
    out += [f"counter {c}" for c in counters
            if trace["counts"][c + "_calls"] == 0]
    return out


def per_layer(trace, run_s):
    """Per-layer metric values of one traced operation.

    ``run_s`` is the operation's traced run time; whatever the top-level
    spans do not cover is reported as ``report.unattributed_s``.  The
    kernel's ``ns_per_path_step`` leaves out substream creation, which
    ``streams.substream_s`` reports.
    """
    spans = trace["spans"]
    counts = trace["counts"]

    def secs(name):
        return sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)

    def inner(name, key):
        return sum(s["counts"][key] for s in spans if s["name"] == name)

    def info(name, key):
        return sum(s["info"][key] for s in spans if s["name"] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    coupling_s = secs("coupling")
    path_steps = inner("coupling", "drift_points") // 2
    top = sum(s["t1"] - s["t0"] for s in spans if s["parent"] is None)
    return {
        "coefficients.ellipticity_s": secs("ellipticity"),
        "coefficients.drift_points": counts["drift_points"],
        "coefficients.diffusion_points": counts["diffusion_points"],
        "coefficients.field_eval_s": counts["drift_s"] + counts["diffusion_s"],
        "criterion.dispersion_s": secs("dispersion"),
        "criterion.dispersion_calls_per_radius": ratio(
            inner("dispersion", "drift_calls"), info("dispersion", "radii")),
        "criterion.modulus_s": secs("modulus"),
        "criterion.modulus_calls_per_radius": ratio(
            inner("modulus", "drift_calls"), info("modulus", "radii")),
        "criterion.escape_s": secs("build_g") + secs("escape"),
        "harmonic_oracle.oracle_s": secs("oracle"),
        "harmonic_oracle.nodes": inner("oracle", "drift_points"),
        "coupling_sim.coupling_s": coupling_s,
        "coupling_sim.path_steps": path_steps,
        "coupling_sim.ns_per_path_step": ratio(
            1e9 * (coupling_s - inner("coupling", "substream_s")), path_steps),
        "coupling_sim.rows_per_step": ratio(
            path_steps, inner("coupling", "drift_calls")),
        "coupling_sim.live_fraction": ratio(
            path_steps, info("coupling", "path_steps_max")),
        "coupling_sim.trajectory_s": secs("trajectory"),
        "matrix_analysis.sqrt_matrices": counts["sqrt_matrices"],
        "streams.substreams": counts["substream_calls"],
        "streams.substream_s": counts["substream_s"],
        "report.emit_s": secs("emit"),
        "report.unattributed_s": run_s - top,
    }
