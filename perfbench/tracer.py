"""In-memory span tracer for the measured layers of :mod:`onofri`.

The tracer wraps the public functions of seven modules from outside the
library.  Modules bind names at import time (``from .harmonics import
analyze``), so installing a wrapper rebinds every reference to the original
that any ``onofri`` module (or the package itself) holds, and class-level
aliases such as ``ConformalMap.__call__ = apply`` too.  ``onofri.normalize``
is shadowed on the package by the function of that name, so modules are
always reached through ``importlib``.

Spans are kept in memory, tagged with the trace id of the input that caused
them, and written out as JSON lines when the benchmark ends.  A span's self
time is its duration minus the durations of its traced child spans.

A target missing from the library (renamed or removed by a later change) is
skipped, and its metrics read zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, metric prefix).  The prefix is
# "<module>.<function>"; methods drop their class name.
TARGETS = [
    ("sphere", "RefinementPolicy.refine", "sphere.refine"),
    ("harmonics", "synthesize", "harmonics.synthesize"),
    ("harmonics", "analyze", "harmonics.analyze"),
    ("harmonics", "evaluate_at", "harmonics.evaluate_at"),
    ("harmonics", "project_samples", "harmonics.project_samples"),
    ("mobius", "ConformalMap.apply", "mobius.apply"),
    ("mobius", "ConformalMap.jacobian", "mobius.jacobian"),
    ("extremals", "build_extremal", "extremals.build_extremal"),
    ("extremals", "psi_field", "extremals.psi_field"),
    ("functionals", "exp_moments", "functionals.exp_moments"),
    ("functionals", "chang_gui_report", "functionals.chang_gui_report"),
    ("functionals", "onofri_value", "functionals.onofri_value"),
    ("functionals", "transform", "functionals.transform"),
    ("normalize", "normalize", "normalize.normalize"),
    ("normalize", "solve_x0", "normalize.solve_x0"),
    ("normalize", "solve_lambda0", "normalize.solve_lambda0"),
    ("normalize", "transported_com", "normalize.transported_com"),
    ("stability", "stability_check", "stability.stability_check"),
    ("stability", "distance_to_manifold", "stability.distance_to_manifold"),
]

# Counters beyond calls and self time: (metric suffix, unit).
EXTRA_METRICS = {
    "sphere.refine": [("steps", "count"), ("nodes", "count"), ("unconverged", "count")],
    "harmonics.synthesize": [("nodes", "count")],
    "harmonics.analyze": [("nodes", "count")],
    "harmonics.evaluate_at": [("points", "count")],
    "mobius.apply": [("points", "count")],
    "mobius.jacobian": [("points", "count")],
    "normalize.normalize": [("fallbacks", "count")],
    "normalize.solve_lambda0": [("objective_evals", "count")],
    "stability.distance_to_manifold": [
        ("objective_evals", "count"),
        ("boundary_hits", "count"),
        ("us_per_eval", "us"),
        ("distance_mean", "dimensionless"),
    ],
}

# Whole-run figures of the traced run, reported with the layer metrics.
RUN_METRICS = [
    ("checks.headroom_min", "decades"),
    ("trace.inputs", "count"),
    ("trace.spans", "count"),
    ("trace.busy_s", "s"),
    ("trace.items_per_s_untraced", "1/s"),
    ("trace.items_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.item_p90_ms", "ms"),
    ("trace.peak_rss_mb", "MiB"),
]


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    out = []
    for _, _, prefix in TARGETS:
        out.append((f"{prefix}.calls", "count"))
        out.append((f"{prefix}.self_s", "s"))
        out.extend((f"{prefix}.{q}", unit) for q, unit in EXTRA_METRICS.get(prefix, []))
    return out + RUN_METRICS


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _point_count(w) -> int:
    shape = getattr(w, "shape", None)
    if shape is None:
        return 1
    return int(w.size // 3) if len(shape) > 1 else 1


class Span:
    __slots__ = ("trace_id", "span_id", "parent_id", "name", "t0", "t1", "child_s", "counts", "error")

    def __init__(self, trace_id, span_id, parent_id, name, t0):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.child_s = 0.0
        self.counts = None
        self.error = None

    def count(self, key, amount=1):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.t0,
            "end_s": self.t1,
            "self_s": (self.t1 - self.t0) - self.child_s,
            "counts": self.counts or {},
            "error": self.error,
        }


class Tracer:
    """Collects spans for inputs run inside :meth:`install`/:meth:`uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace_id = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def begin_trace(self, trace_id) -> None:
        self._trace_id = trace_id

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._trace_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.t1 - span.t0

    def _enclosing(self, name: str):
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    # -- hooks: per-target counters ----------------------------------------

    def _before(self, prefix, span, args, kwargs):
        """Record argument-derived counters; may return replacement args."""
        if prefix == "sphere.refine":
            func = _arg(args, kwargs, 1, "func")

            def counted(grid):
                span.count("steps")
                span.count("nodes", grid.node_count)
                return func(grid)

            if len(args) > 1:
                args = (args[0], counted) + tuple(args[2:])
            else:
                kwargs = dict(kwargs, func=counted)
        elif prefix == "harmonics.synthesize":
            span.count("nodes", _arg(args, kwargs, 1, "grid").node_count)
        elif prefix == "harmonics.analyze":
            span.count("nodes", _arg(args, kwargs, 0, "g").grid.node_count)
        elif prefix == "harmonics.evaluate_at":
            span.count("points", _point_count(_arg(args, kwargs, 1, "points")))
            root_find = self._enclosing("normalize.solve_lambda0")
            if root_find is not None and root_find.counts and root_find.counts.get("root_find"):
                root_find.count("objective_evals")
        elif prefix in ("mobius.apply", "mobius.jacobian"):
            span.count("points", _point_count(_arg(args, kwargs, 1, "w")))
        elif prefix == "normalize.solve_lambda0":
            method = _arg(args, kwargs, 3, "method") or "closed_form"
            span.count("root_find", int(method in ("root_find", "hybrid")))
        return args, kwargs

    def _after(self, prefix, span, args, kwargs, result):
        if prefix == "sphere.refine":
            # (value, grid, converged) at this commit
            converged = result[2] if isinstance(result, tuple) and len(result) > 2 else True
            span.count("unconverged", int(not converged))
        elif prefix == "normalize.normalize":
            requested = _arg(args, kwargs, 2, "method") or "closed_form"
            span.count("fallbacks", int(getattr(result, "method", requested) != requested))
        elif prefix == "stability.distance_to_manifold":
            span.count("objective_evals", int(getattr(result, "nfev", 0)))
            starts = getattr(result, "starts", ())
            span.count("boundary_hits", sum(1 for s in starts if s.get("boundary")))
            span.count("distance", float(getattr(result, "distance", 0.0)))

    # -- installation -------------------------------------------------------

    def _wrap(self, original, prefix):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(prefix)
            try:
                args, kwargs = tracer._before(prefix, span, args, kwargs)
                result = original(*args, **kwargs)
                tracer._after(prefix, span, args, kwargs, result)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", prefix)
        return traced

    def install(self, consumers=()) -> None:
        """Rebind every reference to each target, in every loaded onofri module
        and in the given consumer modules (the benchmark's own callers)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, path, prefix in TARGETS:
            owner = importlib.import_module(f"onofri.{module_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrappers[id(original)] = (original, self._wrap(original, prefix))
        holders = [m for n, m in sys.modules.items() if n == "onofri" or n.startswith("onofri.")]
        holders += list(consumers)
        holders += [v for m in list(holders) for v in vars(m).values() if isinstance(v, type)]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(holder, name, hit[1])
                    self._patches.append((holder, name, value))

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._patches):
            setattr(holder, name, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics of layer_metric_names()."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        busy = defaultdict(float)
        counts = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            dur = span.t1 - span.t0
            busy[span.name] += dur
            self_s[span.name] += dur - span.child_s
            for key, value in (span.counts or {}).items():
                counts[(span.name, key)] += value
        out = {}
        for _, _, prefix in TARGETS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_s[prefix]
            for q, _ in EXTRA_METRICS.get(prefix, []):
                out[f"{prefix}.{q}"] = int(counts[(prefix, q)])
        dist = "stability.distance_to_manifold"
        evals = counts[(dist, "objective_evals")]
        out[f"{dist}.us_per_eval"] = 1e6 * busy[dist] / evals if evals else 0.0
        out[f"{dist}.distance_mean"] = counts[(dist, "distance")] / calls[dist] if calls[dist] else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
