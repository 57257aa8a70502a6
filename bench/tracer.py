"""Span tracer for the benchmark's traced runs.

The tracer wraps public names in the modules that call them (for example
``rabivar.scan.solve_lowest``, the name ``run_scan`` looks up), so nothing
under ``src/`` is edited.  Every wrapped call becomes a span with its layer,
start, end and parent; the spans stay in memory and are written out when the
run ends.  The objective ``energy_2css`` is called about a million times
per scan, so it is counted on its enclosing span instead of getting a span
of its own.  A name the program no longer has is skipped: its layer then
reports zero calls.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter

OPTIMIZE_KINDS = ("CS1", "CSS1", "CS2", "CSS2")

PER_LAYER_UNITS = {
    "exactdiag.calls": "count",
    "exactdiag.busy_s": "s",
    "exactdiag.self_s": "s",
    "exactdiag.call_ms_p50": "ms",
    "exactdiag.call_ms_p90": "ms",
    "exactdiag.n_tr_used_mean": "levels",
    "fock.build_hamiltonian.calls": "count",
    "fock.build_hamiltonian.busy_s": "s",
    "fock.build_hamiltonian.mbytes": "MB",
    "fock.build_hamiltonian.oracle_calls": "count",
    "fock.build_hamiltonian.oracle_busy_s": "s",
    "fock.build_hamiltonian.oracle_mbytes": "MB",
    "states.amplitudes.calls": "count",
    "states.amplitudes.busy_s": "s",
    "states.amplitudes.call_ms_p50": "ms",
    "variational.energy_2css.calls": "count",
    "variational.energy_2css.busy_s": "s",
    "optimize.calls": "count",
    "optimize.busy_s": "s",
    "optimize.self_s": "s",
    "optimize.call_ms_p50": "ms",
    "optimize.call_ms_p90": "ms",
    **{f"optimize.{kind}.call_ms_p50": "ms" for kind in OPTIMIZE_KINDS},
    "optimize.evals_per_solve": "evals/solve",
    "optimize.starts_per_solve": "starts/solve",
    "optimize.converged_frac": "fraction",
    "optimize.reduced_frac": "fraction",
    "scan.self_s": "s",
    "scan.write_table.busy_s": "s",
    "scan.bytes_written": "bytes",
    "verify.oracle_checks.busy_s": "s",
    "verify.structure_checks.busy_s": "s",
    "verify.physics_checks.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
}


def _spectrum(args, kwargs, result):
    return {"n_tr_used": getattr(result, "n_tr_used", None)}


def _matrix(args, kwargs, result):
    return {"mbytes": getattr(result, "nbytes", 0) / 1e6}


def _solve(args, kwargs, result):
    kind = getattr(result, "kind", None)
    return {
        "kind": getattr(kind, "value", kind),
        "starts": getattr(result, "starts_tried", None),
        "converged": bool(getattr(result, "converged", False)),
        "reduced": bool(getattr(result, "reduced", False)),
        "two_branch": bool(getattr(kind, "two_branch", False)),
    }


def _written(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


LEAF = "leaf"

# (module, name, layer, what to record from the call, or LEAF for a counter)
PATCHES = (
    ("rabivar.scan", "solve_lowest", "exactdiag", _spectrum),
    ("rabivar.scan", "solve_parity_sector", "exactdiag", _spectrum),
    ("rabivar.verify", "solve_parity_sector", "exactdiag", _spectrum),
    ("rabivar.exactdiag", "build_hamiltonian", "fock.build_hamiltonian", _matrix),
    ("rabivar.verify", "build_hamiltonian", "fock.build_hamiltonian.oracle", _matrix),
    ("rabivar.scan", "solve_ansatz", "optimize", _solve),
    ("rabivar.verify", "solve_ansatz", "optimize", _solve),
    ("rabivar.optimize", "energy_2css", "variational.energy_2css", LEAF),
    ("rabivar.verify", "displaced_squeezed_amplitudes", "states.amplitudes", None),
    ("rabivar.verify", "css_fock_amplitudes", "states.amplitudes", None),
    ("rabivar.variational", "displaced_squeezed_amplitudes", "states.amplitudes", None),
    ("rabivar.scan", "write_table", "scan.write_table", _written),
    ("rabivar.verify", "oracle_checks", "verify.oracle_checks", None),
    ("rabivar.verify", "structure_checks", "verify.structure_checks", None),
    ("rabivar.verify", "physics_checks", "verify.physics_checks", None),
)


class Tracer:
    """In-memory spans ``[layer, start, end, parent index, attrs]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, layer):
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        return span

    def _close(self, span):
        span[2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, layer):
        span = self._open(layer)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap_span(self, fn, layer, describe):
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if describe is not None:
                span[4].update(describe(args, kwargs, result))
            return result

        return traced

    def _wrap_leaf(self, fn, layer):
        calls_key, seconds_key = layer + ".calls", layer + ".s"
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                if stack:
                    attrs = spans[stack[-1]][4]
                    attrs[calls_key] = attrs.get(calls_key, 0) + 1
                    attrs[seconds_key] = attrs.get(seconds_key, 0.0) + elapsed

        return counted

    def patch(self, module, name, layer, describe=None):
        """Replace module.name by a traced wrapper; skip a name that is gone."""
        original = getattr(module, name, None)
        if original is None:
            return
        if describe == LEAF:
            wrapped = self._wrap_leaf(original, layer)
        else:
            wrapped = self._wrap_span(original, layer, describe)
        setattr(module, name, wrapped)
        self._patched.append((module, name, original))

    def restore(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    @contextmanager
    def installed(self):
        """Patch every name in PATCHES for the duration of the block."""
        try:
            for module_name, name, layer, describe in PATCHES:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                self.patch(module, name, layer, describe)
            yield self
        finally:
            self.restore()


def _ms_percentile(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def layer_metrics(spans, n_calls, traced_walls, untraced_walls):
    """Per-layer metrics per workload call, from spans of n_calls traced calls."""
    child_time = [0.0] * len(spans)
    leaf_calls, leaf_time = 0, 0.0
    for i, (layer, start, end, parent, attrs) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
        child_time[i] += attrs.get("variational.energy_2css.s", 0.0)
        leaf_calls += attrs.get("variational.energy_2css.calls", 0)
        leaf_time += attrs.get("variational.energy_2css.s", 0.0)

    by_layer = {}
    for i, (layer, start, end, parent, attrs) in enumerate(spans):
        entry = by_layer.setdefault(layer, {"durations": [], "self": 0.0, "attrs": []})
        entry["durations"].append(end - start)
        entry["self"] += end - start - child_time[i]
        entry["attrs"].append(attrs)

    def layer(name):
        return by_layer.get(name, {"durations": [], "self": 0.0, "attrs": []})

    per_call = 1.0 / n_calls
    m = {}
    for name in ("exactdiag", "fock.build_hamiltonian", "states.amplitudes", "optimize"):
        d = layer(name)["durations"]
        m[f"{name}.calls"] = len(d) * per_call
        m[f"{name}.busy_s"] = sum(d) * per_call

    ed = layer("exactdiag")
    m["exactdiag.self_s"] = ed["self"] * per_call
    m["exactdiag.call_ms_p50"] = _ms_percentile(ed["durations"], 50)
    m["exactdiag.call_ms_p90"] = _ms_percentile(ed["durations"], 90)
    m["exactdiag.n_tr_used_mean"] = _mean([a["n_tr_used"] for a in ed["attrs"] if a.get("n_tr_used")])

    fock, oracle = layer("fock.build_hamiltonian"), layer("fock.build_hamiltonian.oracle")
    m["fock.build_hamiltonian.mbytes"] = sum(a.get("mbytes", 0.0) for a in fock["attrs"]) * per_call
    m["fock.build_hamiltonian.oracle_calls"] = len(oracle["durations"]) * per_call
    m["fock.build_hamiltonian.oracle_busy_s"] = sum(oracle["durations"]) * per_call
    m["fock.build_hamiltonian.oracle_mbytes"] = sum(a.get("mbytes", 0.0) for a in oracle["attrs"]) * per_call

    m["states.amplitudes.call_ms_p50"] = _ms_percentile(layer("states.amplitudes")["durations"], 50)

    opt = layer("optimize")
    m["variational.energy_2css.calls"] = leaf_calls * per_call
    m["variational.energy_2css.busy_s"] = leaf_time * per_call
    m["optimize.self_s"] = opt["self"] * per_call
    m["optimize.call_ms_p50"] = _ms_percentile(opt["durations"], 50)
    m["optimize.call_ms_p90"] = _ms_percentile(opt["durations"], 90)
    for kind in OPTIMIZE_KINDS:
        durations = [d for d, a in zip(opt["durations"], opt["attrs"]) if a.get("kind") == kind]
        m[f"optimize.{kind}.call_ms_p50"] = _ms_percentile(durations, 50)
    n_solves = len(opt["durations"])
    m["optimize.evals_per_solve"] = leaf_calls / n_solves if n_solves else 0.0
    m["optimize.starts_per_solve"] = _mean([a["starts"] for a in opt["attrs"] if a.get("starts") is not None])
    # A solve that raised carries only its error and counts as not converged.
    m["optimize.converged_frac"] = _mean([a.get("converged", False) for a in opt["attrs"]])
    m["optimize.reduced_frac"] = _mean([a["reduced"] for a in opt["attrs"] if a.get("two_branch")])

    m["scan.self_s"] = layer("scan")["self"] * per_call
    written = layer("scan.write_table")
    m["scan.write_table.busy_s"] = sum(written["durations"]) * per_call
    m["scan.bytes_written"] = sum(a.get("bytes", 0) for a in written["attrs"]) * per_call
    for name in ("oracle_checks", "structure_checks", "physics_checks"):
        m[f"verify.{name}.busy_s"] = sum(layer(f"verify.{name}")["durations"]) * per_call

    traced, untraced = float(np.median(traced_walls)), float(np.median(untraced_walls))
    m["trace.wall_s"] = traced
    m["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: m[name] for name in PER_LAYER_UNITS}
