"""Span tracing from outside the library, and the per-layer metrics.

Module-level names are bound at import, so a function is traced by replacing
its name in every ``previewsafe`` module that holds it, the defining module
included (that catches calls inside a module, such as ``set_equal`` calling
``contains_set`` or ``chebyshev_center`` calling ``linprog_max``).  Spans are
kept in memory as ``[name, start, end, parent, op, item, info]`` and written
out once, at the end of the run.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

from previewsafe.geometry.lp import LPStatus


# info extractors: (positional arguments, result) -> tuple kept on the span


def _lp_info(args, out):
    rows, cols = args[1].shape
    return rows * cols, out.status is LPStatus.INFEASIBLE


def _project_info(args, out):
    return args[0].nrows, out.nrows


def _report_info(args, out):
    return out.iterations, out.result.nrows, max(out.per_step_rows)


def _supervise_info(args, out):
    return out.supervised, out.admissible_empty


# (module, function, span name, info extractor)
TRACED = [
    ("previewsafe.geometry.lp", "linprog_max", "lp.linprog_max", _lp_info),
    ("previewsafe.geometry.lp", "chebyshev_center", "lp.chebyshev_center", None),
    ("previewsafe.geometry.polytope", "project", "polytope.project", _project_info),
    ("previewsafe.geometry.polytope", "contains_set", "polytope.contains_set", None),
    ("previewsafe.geometry.polytope", "set_equal", "polytope.set_equal", None),
    ("previewsafe.geometry.polytope", "pontryagin_diff", "polytope.pontryagin_diff", None),
    ("previewsafe.geometry.interval", "box_vertices", "interval.box_vertices", None),
    ("previewsafe.geometry.interval", "convex_weights", "interval.convex_weights", None),
    ("previewsafe.systems", "augment", "systems.augment", None),
    ("previewsafe.invariance", "pre", "invariance.pre", None),
    ("previewsafe.invariance", "method1", "invariance.method1", _report_info),
    ("previewsafe.invariance", "method2", "invariance.method2", _report_info),
    ("previewsafe.invariance", "is_invariant", "invariance.is_invariant", None),
    ("previewsafe.invariance", "admissible_inputs", "invariance.admissible_inputs", None),
    ("previewsafe.brunovsky", "controller_g", "brunovsky.controller_g", None),
    ("previewsafe.brunovsky", "vertex_interval", "brunovsky.vertex_interval", None),
    ("previewsafe.brunovsky", "closed_form", "brunovsky.closed_form", None),
    ("previewsafe.brunovsky", "nonempty_ineq", "brunovsky.nonempty_ineq", None),
    ("previewsafe.simulation", "supervise", "simulation.supervise", _supervise_info),
    ("previewsafe.simulation", "lqr_gain", "simulation.lqr_gain", None),
    ("previewsafe.simulation", "rollout", "simulation.rollout", None),
]

# functions that run in set-up; their metrics count one set-up plus one pass
SETUP_SPANS = {
    "systems.augment",
    "invariance.method2",
    "invariance.is_invariant",
    "brunovsky.closed_form",
    "brunovsky.nonempty_ineq",
    "simulation.lqr_gain",
}

# enclosing functions whose LPs get an ``lp.calls.by_<function>`` count
LP_OWNERS = ("polytope.project", "polytope.contains_set", "polytope.pontryagin_diff", "simulation.supervise")


class Tracer:
    """Records spans while ``active``; ``op`` and ``item`` tag the current
    timed operation and checked item (-1 during set-up)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = True
        self.op = -1
        self.item = -1

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[6] = info(args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("previewsafe")]
        for module_name, attr, name, info in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, info)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)

    def write(self, path, header: dict) -> None:
        """Header line, then one JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")


def layer_metrics(spans, passes: int, batch: int, setups: int, pauses, scale_of) -> dict:
    """Per-layer metrics for one pass over the batch of timed items, plus one
    set-up for the functions in ``SETUP_SPANS``.

    ``s`` is inclusive time, ``self_s`` the time not covered by child spans.
    Spans of items beyond the last complete pass are left out, so counts are
    the same on every pass.  ``pauses`` are ``(start, seconds, ...)`` records,
    in order, of calibration runs made inside set-ups and operations; their
    time is taken out of the spans that enclose them.  A span's time is then
    multiplied by ``scale_of(operation id)``, -1 in set-up, which puts it in
    the reference-machine seconds of the operation it ran in.
    """
    starts = [pause[0] for pause in pauses]
    paused = [0.0, *itertools.accumulate(pause[1] for pause in pauses)]

    def duration(rec):
        first = bisect.bisect_left(starts, rec[1])
        last = bisect.bisect_left(starts, rec[2])
        return (rec[2] - rec[1] - (paused[last] - paused[first])) * scale_of(rec[4])

    durations = [duration(rec) for rec in spans]
    child = [0.0] * len(spans)
    for rec, dt in zip(spans, durations):
        if rec[3] >= 0:
            child[rec[3]] += dt

    # raw sums per phase; set-up sums are divided by ``setups``, pass sums by ``passes``
    sums = {"setup": defaultdict(float), "op": defaultdict(float)}
    limit = passes * batch
    for idx, rec in enumerate(spans):
        name, start, end, parent, op, item, info = rec
        if op < 0:
            if name not in SETUP_SPANS:
                continue
            acc = sums["setup"]
        elif item < limit:
            acc = sums["op"]
        else:
            continue
        acc[name, "calls"] += 1
        acc[name, "s"] += durations[idx]
        acc[name, "self_s"] += durations[idx] - child[idx]
        if info is None:  # no extractor, or the call raised
            continue
        if name == "lp.linprog_max":
            acc[name, "cells"] += info[0]
            acc[name, "infeasible"] += info[1]
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            for owner in LP_OWNERS:
                if owner in ancestors:
                    acc[owner, "lps"] += 1
        elif name == "polytope.project":
            acc[name, "rows_in"] += info[0]
            acc[name, "rows_out"] += info[1]
        elif name in ("invariance.method1", "invariance.method2"):
            acc[name, "iterations"] += info[0]
            acc[name, "rows_final"] += info[1]
            acc[name, "rows_peak"] += info[2]
        elif name == "simulation.supervise":
            acc[name, "changed"] += info[0]
            acc[name, "fallbacks"] += info[1]

    def get(name, quantity):
        key = (name, quantity)
        return sums["op"][key] / passes + sums["setup"][key] / setups

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("lp.linprog_max.calls", get("lp.linprog_max", "calls"), "count")
    put("lp.linprog_max.self_s", get("lp.linprog_max", "self_s"), "s")
    put("lp.linprog_max.cells", get("lp.linprog_max", "cells"), "count")
    put("lp.linprog_max.infeasible", get("lp.linprog_max", "infeasible"), "count")
    for owner in LP_OWNERS:
        put("lp.calls.by_" + owner.split(".")[1], get(owner, "lps"), "count")
    put("lp.chebyshev_center.calls", get("lp.chebyshev_center", "calls"), "count")
    put("lp.chebyshev_center.self_s", get("lp.chebyshev_center", "self_s"), "s")
    project = "polytope.project"
    for quantity, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"),
                           ("rows_in", "count"), ("rows_out", "count")):
        put(f"{project}.{quantity}", get(project, quantity), unit)
    put(f"{project}.rows_out_per_lp",
        ratio(get(project, "rows_out"), get(project, "lps")), "ratio")
    for name in ("polytope.contains_set", "polytope.set_equal", "polytope.pontryagin_diff",
                 "interval.box_vertices", "interval.convex_weights", "systems.augment",
                 "invariance.pre", "invariance.admissible_inputs"):
        put(name + ".calls", get(name, "calls"), "count")
        put(name + ".s", get(name, "s"), "s")
    put("invariance.pre.self_s", get("invariance.pre", "self_s"), "s")
    for quantity in ("iterations", "rows_final", "rows_peak"):
        put("invariance.method1." + quantity, get("invariance.method1", quantity), "count")
    put("invariance.method2.s", get("invariance.method2", "s"), "s")
    put("invariance.method2.iterations", get("invariance.method2", "iterations"), "count")
    put("invariance.is_invariant.s", get("invariance.is_invariant", "s"), "s")
    put("brunovsky.controller_g.calls", get("brunovsky.controller_g", "calls"), "count")
    put("brunovsky.controller_g.self_s", get("brunovsky.controller_g", "self_s"), "s")
    put("brunovsky.vertex_interval.calls", get("brunovsky.vertex_interval", "calls"), "count")
    put("brunovsky.vertex_interval.per_controller_call",
        ratio(get("brunovsky.vertex_interval", "calls"), get("brunovsky.controller_g", "calls")),
        "count")
    put("brunovsky.closed_form.s", get("brunovsky.closed_form", "s"), "s")
    put("brunovsky.nonempty_ineq.calls", get("brunovsky.nonempty_ineq", "calls"), "count")
    supervise = "simulation.supervise"
    put(supervise + ".calls", get(supervise, "calls"), "count")
    put(supervise + ".self_s", get(supervise, "self_s"), "s")
    put(supervise + ".changed_frac", ratio(get(supervise, "changed"), get(supervise, "calls")), "ratio")
    put(supervise + ".fallbacks", get(supervise, "fallbacks"), "count")
    put("simulation.lqr_gain.s", get("simulation.lqr_gain", "s"), "s")
    return m
