"""Span tracer that wraps the library's public functions from outside.

`install(tracer)` replaces each function in LAYERS by a wrapper, in every
``twocubes`` module namespace that holds a reference to it (``cli`` and
``function_field`` import most names directly), and on classes in every
class-dict slot that aliases it (``__rmul__ = __mul__``).  Nothing in the
library is edited.  A name that no longer exists is recorded as absent.

Each call of a wrapped function is a span: name, start, end, parent span
and the id of the benchmark operation it ran under.  A layer's self time
is its spans' duration minus the time covered by their child spans; the
spans nest (one thread), so the covered time is the sum of the direct
children's durations.  Counting-only entries (``COUNTERS``) wrap hot
element operations with a bare counter and open no span.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time

# (layer, module, attribute); "Class.method" patches a method.  Several
# attributes may feed one layer.  Extra counters per call come from HOOKS.
LAYERS = [
    ("exact.zechlog.build", "twocubes.exact.zechlog", "ZechLog.__init__"),
    ("exact.zechlog.sextic_traces", "twocubes.exact.zechlog", "ZechLog.sextic_traces"),
    ("exact.zechlog.cube_class_counts", "twocubes.exact.zechlog", "ZechLog.cube_class_counts"),
    ("exact.ffield.field_init", "twocubes.exact.ffield", "FiniteField.__init__"),
    ("exact.numbers.factorize", "twocubes.exact.numbers", "factorize"),
    ("exact.poly.mul", "twocubes.exact.poly", "Polynomial.__mul__"),
    ("exact.poly.mul", "twocubes.exact.poly", "Polynomial.__rmul__"),
    ("exact.poly.poly_gcd", "twocubes.exact.poly", "poly_gcd"),
    ("elliptic.add_points", "twocubes.elliptic", "add_points"),
    ("elliptic.scalar_mul", "twocubes.elliptic", "scalar_mul"),
    ("elliptic.point_order", "twocubes.elliptic", "point_order"),
    ("elliptic.subgroup_is_cyclic", "twocubes.elliptic", "subgroup_is_cyclic"),
    ("elliptic.torsion_order_bound", "twocubes.elliptic", "torsion_order_bound"),
    ("elliptic.count_points", "twocubes.elliptic", "count_points"),
    ("function_field.fiber_trace_sum", "twocubes.function_field", "fiber_trace_sum"),
    ("function_field.lfunction", "twocubes.function_field", "lfunction"),
    ("function_field.rank_bounds", "twocubes.function_field", "rank_bounds"),
    ("function_field.section_add", "twocubes.function_field", "section_add"),
    ("function_field.section_mul", "twocubes.function_field", "section_mul"),
    ("function_field.pullback_differential", "twocubes.function_field", "pullback_differential"),
    ("function_field.z_rank", "twocubes.function_field", "z_rank"),
    ("surface.analyze", "twocubes.surface", "analyze"),
    ("surface.classify_fibers", "twocubes.surface", "classify_fibers"),
    ("cli.dispatch", "twocubes.cli", "dispatch"),
    ("twists.specialize", "twocubes.twists", "specialize"),
    ("twists.rank2_certificate", "twocubes.twists", "rank2_certificate"),
    ("identities.verify", "twocubes.identities", "verify_ramanujan_1913"),
    ("identities.verify", "twocubes.identities", "verify_entry20"),
    ("identities.verify", "twocubes.identities", "euler_family_symbolic_check"),
    ("identities.verify", "twocubes.identities", "verify_euler_family"),
    ("identities.nearmiss_stream", "twocubes.identities", "nearmiss_stream"),
    ("identities.taxicab_search", "twocubes.identities", "taxicab_search"),
]

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__pow__")
COUNTERS = [
    ("exact.ffield.elem_ops", "twocubes.exact.ffield", f"FFElement.{m}")
    for m in _ARITH + ("inverse",)
] + [
    ("exact.ratfunc.ops", "twocubes.exact.ratfunc", f"RationalFunction.{m}") for m in _ARITH
]


def _q_swept(args):
    q = args[1] ** args[2]
    return q if q % 3 == 1 else 0


def _certificate(outcome):
    found = outcome.certificate is not None
    return {"certified": int(found), "exhausted": int(not found),
            "primes_tried": outcome.primes_tried}


# layer -> (counters from (args, result), span detail from args)
HOOKS = {
    "exact.zechlog.build": (lambda a, r: {"elements": a[1].q}, lambda a: f"q={a[1].q}"),
    "exact.zechlog.sextic_traces": (None, lambda a: f"q={a[0].q}"),
    "exact.zechlog.cube_class_counts": (None, lambda a: f"q={a[0].q}"),
    "elliptic.count_points": (lambda a, r: {"elements": a[0].q}, lambda a: f"q={a[0].q}"),
    "function_field.fiber_trace_sum": (
        lambda a, r: {"field_elements": _q_swept(a)}, lambda a: f"q={a[1]}^{a[2]}"),
    "function_field.lfunction": (None, lambda a: f"p={a[0]}"),
    "twists.rank2_certificate": (lambda a, r: _certificate(r), lambda a: f"d={a[0].d}"),
    "cli.dispatch": (None, lambda a: " ".join(a[0])),
}
RSS_LAYERS = {"exact.zechlog.build"}

# Spans kept per layer; later spans still count in calls and self time.
SPAN_CAP = 2000


class Tracer:
    def __init__(self):
        self.spans = []  # [id, layer, start, end, parent id, op id, detail]
        self.stats = {}  # layer -> {"calls", "self_s", "total_s", counters...}
        self.counts = {}  # counting-only layer -> [n]
        self.kept = {}  # layer -> spans kept
        self.absent = []
        self.op_id = None
        self._stack = []  # frames: [kept span id or None, nearest kept id, child time]

    def begin(self, layer, detail=None):
        """Open a span; returns its start time, to be passed to end()."""
        parent_kept = self._stack[-1][1] if self._stack else None
        sid = None
        if self.kept.get(layer, 0) < SPAN_CAP:
            self.kept[layer] = self.kept.get(layer, 0) + 1
            sid = len(self.spans)
            self.spans.append([sid, layer, 0.0, 0.0, parent_kept, self.op_id,
                               detail() if detail else None])
        self._stack.append([sid, parent_kept if sid is None else sid, 0.0])
        return time.perf_counter()

    def end(self, layer, start, counted=True, extra=None):
        stop = time.perf_counter()
        sid, _, child = self._stack.pop()
        dur = stop - start
        if sid is not None:
            self.spans[sid][2:4] = [start, stop]
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        st["calls"] += counted
        st["self_s"] += dur - child
        st["total_s"] += dur
        for key, val in (extra or {}).items():
            st[key] = st.get(key, 0) + val

    def summary(self) -> dict:
        return {
            "layers": self.stats,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "absent": self.absent,
            "spans_kept": len(self.spans),
            "span_fields": ["id", "layer", "start", "end", "parent", "op", "detail"],
        }


def _resolve(module, attr):
    """(owner, original) or None when the module or name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if orig is None else (owner, orig)


def _replace(owner, orig, wrapper, modules):
    if isinstance(owner, type):
        for key, val in list(vars(owner).items()):
            if val is orig:
                setattr(owner, key, wrapper)
        return
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


def _span_wrapper(tracer, layer, orig):
    counters, detail = HOOKS.get(layer, (None, None))
    cache_info = getattr(orig, "cache_info", None)
    rss = layer in RSS_LAYERS

    def wrapper(*args, **kwargs):
        misses = cache_info().misses if cache_info else 0
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
        start = tracer.begin(layer, (lambda: detail(args)) if detail else None)
        result, done = None, False
        try:
            result = orig(*args, **kwargs)
            done = True
            return result
        finally:
            extra = counters(args, result) if counters and done else {}
            if rss:
                rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                extra["rss_rise_mb"] = rise / 1024
            # an lru_cache hit is not a call: calls count executions of the body
            counted = cache_info is None or cache_info().misses > misses
            tracer.end(layer, start, counted, extra)

    wrapper.traced_layer = layer
    return wrapper


def _count_wrapper(layer, cell, orig):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return orig(*args, **kwargs)

    wrapper.traced_layer = layer
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry of LAYERS and COUNTERS; a layer none of whose names
    resolves is recorded as absent."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("twocubes") and m]
    found_layers = set()
    for table, counting in ((LAYERS, False), (COUNTERS, True)):
        for layer, module, attr in table:
            found = _resolve(module, attr)
            if found is None:
                continue
            found_layers.add(layer)
            owner, orig = found
            if hasattr(orig, "traced_layer"):  # an alias of a slot already wrapped
                continue
            if counting:
                cell = tracer.counts.setdefault(layer, [0])
                wrapper = _count_wrapper(layer, cell, orig)
            else:
                wrapper = _span_wrapper(tracer, layer, orig)
            _replace(owner, orig, wrapper, modules)
    every = {layer for layer, _, _ in LAYERS + COUNTERS}
    tracer.absent = sorted(every - found_layers)
