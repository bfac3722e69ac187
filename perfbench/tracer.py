"""Spans around the public functions of each samplingdyn module.

The traced run installs wrappers with :meth:`Tracer.install` and takes
them out with :meth:`Tracer.uninstall`; the untimed and the timed runs
never see them.  A wrapper replaces the function in every samplingdyn
module namespace that binds it (``samplingdyn.cli.estimate_basins`` as
well as ``samplingdyn.flow.estimate_basins``), and a method on its class.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and job id;
* a *leaf* is a hot call (a response evaluation, a contracting response
  vector) that is aggregated into its parent span as (calls, seconds,
  points) to bound the tracing overhead.  A leaf called inside another
  leaf (``inverse`` calling ``__call__``, ``MinEffortResponse`` calling
  ``binomial_tail``) is counted once, at the outer call.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the time its child spans and its
aggregated leaves cover.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

PACKAGE = "samplingdyn"

# (module, attribute, span name).  Span names are "<layer>.<function>".
SPANS = [
    ("analysis", "find_stationary_one_pop", "analysis.stationary"),
    ("analysis", "find_stationary_two_pop", "analysis.stationary"),
    ("analysis", "check_theorem3", "analysis.theorem"),
    ("analysis", "check_theorem4", "analysis.theorem"),
    ("analysis", "check_homogeneous_uniqueness", "analysis.theorem"),
    ("analysis", "classify_pure_states", "analysis.theorem"),
    ("analysis", "stable_interior_search", "analysis.theorem"),
    ("flow", "estimate_basins", "flow.basins"),
    ("flow", "integrate", "flow.integrate"),
    ("extensions", "integrate_contracting", "extensions.integrate_contracting"),
    ("oracle", "simulate_population", "oracle.simulate"),
    ("oracle", "empirical_response", "oracle.empirical"),
    ("config", "load_config", "config.parse"),
    ("config", "parse_environment", "config.parse"),
    ("config", "parse_game", "config.parse"),
    ("config", "parse_theta", "config.parse"),
    ("config", "write_trajectory_csv", "config.write"),
    ("config", "write_basins_csv", "config.write"),
    ("config", "write_stationary_csv", "config.write"),
    ("config", "write_json", "config.write"),
    ("svg", "phase_svg_one_pop", "svg.phase"),
    ("svg", "phase_svg_two_pop", "svg.phase"),
    ("svg", "phase_curves_csv_one_pop", "svg.phase"),
    ("svg", "phase_curves_csv_two_pop", "svg.phase"),
    ("cli", "main", "cli.main"),
]

# (module, class, method or None for a function, leaf kind)
LEAVES = [
    ("dynamics", "SamplingResponse", "__call__", "call"),
    ("dynamics", "SamplingResponse", "derivative", "derivative"),
    ("dynamics", "SamplingResponse", "inverse", "inverse"),
    ("dynamics", "LogitResponse", "__call__", "call"),
    ("dynamics", "LogitResponse", "derivative", "derivative"),
    ("dynamics", "LogitResponse", "inverse", "inverse"),
    ("extensions", "MinEffortResponse", "__call__", "call"),
    ("extensions", "MinEffortResponse", "derivative", "derivative"),
    ("extensions", "MinEffortResponse", "inverse", "inverse"),
    ("dynamics", None, "binomial_tail", "call"),
    ("extensions", None, "contracting_response_vector", "contracting"),
]


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    job: int
    start: float
    end: float = 0.0
    points: float = 0.0  # work or output count read off the result
    extra: dict = field(default_factory=dict)
    # leaf key -> [calls, seconds, points]
    leaves: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points_of(name: str, args, kwargs, result) -> tuple[float, dict]:
    """Work or output count of one span, read off its arguments and result."""
    if name == "analysis.stationary":
        return float(len(result.states)), {}
    if name == "flow.basins":
        cells = result.cells
        return float(cells.size), {"flagged": int(result.flagged), "dim": cells.ndim}
    if name == "flow.integrate":
        return float(len(result.times) - 1), {"converged": bool(result.converged)}
    if name == "extensions.integrate_contracting":
        return float(len(result[0]) - 1), {}
    if name == "oracle.simulate":
        pops = 2 if np.ndim(result.states) == 2 else 1
        return float(result.n * (len(result.times) - 1) * pops), {}
    if name == "oracle.empirical":
        samples = kwargs["samples"] if "samples" in kwargs else args[2]
        return float(samples), {}
    if name == "config.write":
        path = kwargs["path"] if "path" in kwargs else args[0]
        return float(os.path.getsize(path)), {}
    return 0.0, {}


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: int | None = None
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, parent, self.job, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run_job(self, job_id: int, name: str, fn):
        """Run ``fn()`` as job ``job_id`` under a root span ``name``."""
        self.job = job_id
        span = self.open(name)
        try:
            return fn()
        finally:
            self.close(span)
            self.job = None

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None or tracer._in_leaf:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.points, span.extra = _points_of(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, owner: str, kind: str, is_method: bool):
        tracer = self
        arg_index = 1 if is_method else 2  # p is binomial_tail's third argument

        def wrapper(*args, **kwargs):
            if tracer.job is None or tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                tracer._in_leaf = False
                if kind == "call":
                    p = args[arg_index] if len(args) > arg_index else None
                    scalar = isinstance(p, (float, int))
                    key = ("scalar:" if scalar else "array:") + owner
                    points = 1 if scalar else int(np.size(p))
                else:
                    key = f"{kind}:{owner}"
                    points = 1
                entry = tracer.stack[-1].leaves.setdefault(key, [0, 0.0, 0])
                entry[0] += 1
                entry[1] += seconds
                entry[2] += points

        wrapper.__wrapped__ = fn
        return wrapper

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib

        mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
                for m in ("analysis", "cli", "config", "dynamics", "extensions",
                          "flow", "oracle", "svg")}
        for mod, attr, name in SPANS:
            original = getattr(mods[mod], attr)
            self._patch_everywhere(original, self._span_wrapper(original, name))
        for mod, cls_name, attr, kind in LEAVES:
            if cls_name is None:
                original = getattr(mods[mod], attr)
                self._patch_everywhere(
                    original, self._leaf_wrapper(original, attr, kind, False)
                )
            else:
                cls = getattr(mods[mod], cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._leaf_wrapper(original, cls_name, kind, True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        rows = [
            {
                "id": s.sid, "name": s.name, "parent": s.parent, "job": s.job,
                "start": s.start, "end": s.end, "points": s.points,
                "extra": s.extra, "leaves": s.leaves,
            }
            for s in self.spans
        ]
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        os.replace(tmp, path)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus its child spans and aggregated leaves."""
    covered = [sum(v[1] for v in s.leaves.values()) for s in spans]
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name."""

    def nested(s: Span) -> bool:
        while s.parent is not None:
            s = spans[s.parent]
            if s.name == name:
                return True
        return False

    return [s for s in spans if s.name == name and not nested(s)]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run; see perfbench/README.md."""
    own = self_times(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in named.get(name, ()))

    def self_total(name: str) -> float:
        return sum(own[s.sid] for s in named.get(name, ()))

    def leaf_sum(kind: str, sel=None, idx: int = 0) -> float:
        return sum(v[idx] for s in (spans if sel is None else sel)
                   for k, v in s.leaves.items() if k.startswith(kind + ":"))

    out: dict[str, float] = {}

    # dynamics: every response evaluation, wherever it happens
    out["dynamics.array_calls"] = leaf_sum("array")
    out["dynamics.array_points"] = leaf_sum("array", idx=2)
    out["dynamics.array_s"] = leaf_sum("array", idx=1)
    out["dynamics.ns_per_point"] = 1e9 * _ratio(out["dynamics.array_s"],
                                                out["dynamics.array_points"])
    out["dynamics.scalar_calls"] = leaf_sum("scalar")
    out["dynamics.scalar_s"] = leaf_sum("scalar", idx=1)
    out["dynamics.us_per_scalar_call"] = 1e6 * _ratio(out["dynamics.scalar_s"],
                                                      out["dynamics.scalar_calls"])
    out["dynamics.derivative_calls"] = leaf_sum("derivative")
    out["dynamics.derivative_s"] = leaf_sum("derivative", idx=1)

    # analysis: stationary searches never nest, so leaves sit right under them
    stat = named.get("analysis.stationary", [])
    durations = [s.duration for s in stat]
    roots = sum(s.points for s in stat)
    evals = sum(v[0] for s in stat for v in s.leaves.values())
    out["analysis.stationary_calls"] = float(len(stat))
    out["analysis.stationary_s"] = sum(durations)
    out["analysis.stationary_ms_p50"] = 1e3 * median(durations) if durations else 0.0
    out["analysis.roots"] = roots
    out["analysis.evals_per_root"] = _ratio(evals, roots)
    out["analysis.theorem_s"] = sum(s.duration for s in _outermost(spans, "analysis.theorem"))

    # flow: batched RK4 does 4 field evaluations per step and each field
    # evaluation makes one array response call per dimension, so the
    # array calls and points right under an estimate_basins span (its
    # stationary search is a child span) give steps and cell-steps.
    basins = named.get("flow.basins", [])
    steps = cell_steps = 0.0
    for s in basins:
        per_step = 4.0 * s.extra["dim"]
        steps += leaf_sum("array", [s]) / per_step
        cell_steps += leaf_sum("array", [s], idx=2) / per_step
    cells = sum(s.points for s in basins)
    out["flow.basins_s"] = self_total("flow.basins")
    out["flow.basin_cells"] = cells
    out["flow.rk4_steps"] = steps
    out["flow.cell_steps_per_cell"] = _ratio(cell_steps, cells)
    out["flow.flagged_cells"] = float(sum(s.extra["flagged"] for s in basins))
    integ = named.get("flow.integrate", [])
    traj_steps = sum(s.points for s in integ)
    out["flow.integrate_s"] = self_total("flow.integrate")
    out["flow.trajectory_steps"] = traj_steps
    out["flow.us_per_step"] = 1e6 * _ratio(total("flow.integrate"), traj_steps)
    out["flow.converged_ratio"] = _ratio(sum(s.extra["converged"] for s in integ), len(integ))

    # extensions
    out["extensions.contracting_calls"] = leaf_sum("contracting")
    out["extensions.contracting_s"] = leaf_sum("contracting", idx=1)
    out["extensions.us_per_contracting_call"] = 1e6 * _ratio(
        out["extensions.contracting_s"], out["extensions.contracting_calls"])
    out["extensions.mineffort_calls"] = float(sum(
        v[0] for s in spans for k, v in s.leaves.items()
        if k in ("array:MinEffortResponse", "scalar:MinEffortResponse")))

    # oracle
    out["oracle.simulate_s"] = total("oracle.simulate")
    out["oracle.agent_steps"] = sum(s.points for s in named.get("oracle.simulate", ()))
    out["oracle.ns_per_agent_step"] = 1e9 * _ratio(out["oracle.simulate_s"],
                                                   out["oracle.agent_steps"])
    out["oracle.empirical_draws"] = sum(s.points for s in named.get("oracle.empirical", ()))
    out["oracle.empirical_s"] = total("oracle.empirical")

    # config, svg, cli
    out["config.parse_s"] = sum(s.duration for s in _outermost(spans, "config.parse"))
    out["config.write_s"] = total("config.write")
    out["config.bytes_written"] = sum(s.points for s in named.get("config.write", ()))
    out["svg.phase_s"] = total("svg.phase")
    out["cli.self_s"] = self_total("cli.main")
    return out


UNITS = {
    "dynamics.array_calls": "count",
    "dynamics.array_points": "count",
    "dynamics.array_s": "s",
    "dynamics.ns_per_point": "ns",
    "dynamics.scalar_calls": "count",
    "dynamics.scalar_s": "s",
    "dynamics.us_per_scalar_call": "us",
    "dynamics.derivative_calls": "count",
    "dynamics.derivative_s": "s",
    "analysis.stationary_calls": "count",
    "analysis.stationary_s": "s",
    "analysis.stationary_ms_p50": "ms",
    "analysis.roots": "count",
    "analysis.evals_per_root": "count",
    "analysis.theorem_s": "s",
    "flow.basins_s": "s",
    "flow.basin_cells": "count",
    "flow.rk4_steps": "count",
    "flow.cell_steps_per_cell": "count",
    "flow.flagged_cells": "count",
    "flow.integrate_s": "s",
    "flow.trajectory_steps": "count",
    "flow.us_per_step": "us",
    "flow.converged_ratio": "1",
    "extensions.contracting_calls": "count",
    "extensions.contracting_s": "s",
    "extensions.us_per_contracting_call": "us",
    "extensions.mineffort_calls": "count",
    "oracle.simulate_s": "s",
    "oracle.agent_steps": "count",
    "oracle.ns_per_agent_step": "ns",
    "oracle.empirical_draws": "count",
    "oracle.empirical_s": "s",
    "oracle.meanfield_gap": "1",
    "config.parse_s": "s",
    "config.write_s": "s",
    "config.bytes_written": "bytes",
    "svg.phase_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "1",
}
