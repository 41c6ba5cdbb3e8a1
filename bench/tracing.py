"""Outside-in layer trace for the benchmark.

The tracer wraps public functions of ``rittcalc`` from the outside: each
wrapper records one span (name, start, end, parent span, op id) and calls
straight through.  Spans are kept in memory and written out when the run
ends.  A span is recorded only while an op is open, so the benchmark's
own oracle calls stay out of the trace.

Self time is a span's duration minus the time its child spans cover;
children of one span run one after another, so that is the sum of their
durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict

#: (module, attribute) of every traced public function, in report order
TRACED = (
    ("numlin", "solve"), ("numlin", "op_norm"), ("numlin", "svd"),
    ("numlin", "eig"), ("numlin", "mat_power_seq"),
    ("stolz", "boundary_contour"), ("stolz", "sector_contour"),
    ("stolz", "boundary_samples"),
    ("ritt", "ritt_verdict"), ("ritt", "resolvent_sup"),
    ("ritt", "spectral_type"), ("ritt", "increment_bound"),
    ("ritt", "resolvent_sample_points"),
    ("funcalc", "ContourCalculus.apply"), ("funcalc", "frac_power"),
    ("funcalc", "transfer_check"), ("funcalc", "hinf_norm"),
    ("funcalc", "eval_poly"), ("funcalc", "calculus_constant"),
    ("sqfun", "square_function"), ("sqfun", "sf_constant"),
    ("sqfun", "rad_norm"), ("sqfun", "gram_operator"),
    ("lab", "gallery_schur"),
    ("cli", "main"), ("cli", "load_matrix"),
)

#: op_norm spans are split by space model class
OP_NORM_MODELS = {"Hilbert": "hilbert", "LpWeighted": "lp",
                  "SchattenP": "schatten", "SupSeq": "sup"}

#: span names reported as calls / s / self_s (resolvent_sample_points is
#: traced for its point count only)
TIMED_SPANS = tuple(
    f"{m}.{a}" for m, a in TRACED if a != "resolvent_sample_points"
) + tuple(f"numlin.op_norm.{v}" for v in OP_NORM_MODELS.values())

#: derived per-layer metrics: name -> unit
DERIVED = {
    "stolz.contour.nodes": "count/pass",
    "ritt.resolvent_sample_points.points": "count/pass",
    "sqfun.square_function.terms": "count/pass",
    "numlin.mat_power_seq.mb": "MB-computed",
    "sqfun.rad_norm.patterns": "count-computed",
    "numlin.op_norm.gap_max": "ratio",
    "funcalc.oracle_err_max": "1",
}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for span in TIMED_SPANS:
        units[f"{span}.calls"] = "count/pass"
        units[f"{span}.s"] = "s/pass"
        units[f"{span}.self_s"] = "s/pass"
    units.update(DERIVED)
    units.update({
        "bench.op.calls": "count/pass",
        "bench.op.s": "s/pass",
        "bench.untraced_wall_s": "s",
        "bench.trace_overhead_s": "s",
        "bench.probe_ms": "ms",
        "bench.default_threads_wall_s": "s",
        "bench.cpu_per_wall": "ratio",
    })
    return units


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self):
        self.spans = []  # (span_id, name, start, end, parent_id, op_id)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._ids = itertools.count(1)
        self._stack = []
        self._op = None
        self._patched = []

    # -- ops -------------------------------------------------------------
    def run_op(self, fn):
        """Call fn() as one op: a root span whose id all its spans share."""
        self._op = next(self._ids)
        try:
            return self._span("bench.op", fn, (), {})
        finally:
            self._op = None

    def _span(self, name, fn, args, kwargs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self._op))

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            out = tracer._span(span, fn, args, kwargs)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every function in TRACED wherever rittcalc binds it.

        Modules that did ``from .numlin import op_norm`` hold their own
        binding, so each module namespace bound to the same function
        object is patched too.
        """
        modules = [getattr(package, m) for m in
                   ("numlin", "stolz", "ritt", "funcalc", "sqfun", "lab", "cli", "verify")]
        hooks = self._hooks()
        for mod_name, attr in TRACED:
            mod = getattr(package, mod_name)
            label = f"{mod_name}.{attr}"
            name, on_result = hooks.get(label, (label, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, on_result))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, on_result)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _hooks(self) -> dict:
        counts, maxima = self.counts, self.maxima

        def op_norm_name(args, kwargs):
            space = args[1] if len(args) > 1 else kwargs["space"]
            return "numlin.op_norm." + OP_NORM_MODELS[type(space).__name__]

        def op_norm_done(res, args, kwargs):
            # op_norm is recorded under its model; the aggregate span is
            # rebuilt from the per-model spans when the metrics are made
            if not res.exact and res.value > 0:
                maxima["numlin.op_norm.gap_max"] = max(
                    maxima["numlin.op_norm.gap_max"], res.upper / res.value - 1.0)

        def contour_done(res, args, kwargs):
            counts["stolz.contour.nodes"] += len(res.nodes)

        def points_done(res, args, kwargs):
            counts["ritt.resolvent_sample_points.points"] += len(res)

        def terms_done(res, args, kwargs):
            counts["sqfun.square_function.terms"] += res.n_terms

        def powers_done(res, args, kwargs):
            mb = len(res) * res[0].size * res[0].itemsize / 1e6
            maxima["numlin.mat_power_seq.mb"] = max(maxima["numlin.mat_power_seq.mb"], mb)

        def rad_done(res, args, kwargs):
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
            if mode == "exact" and len(args[0]) > 1:
                counts["sqfun.rad_norm.patterns"] += 2 ** (len(args[0]) - 1)

        return {
            "numlin.op_norm": (op_norm_name, op_norm_done),
            "stolz.boundary_contour": ("stolz.boundary_contour", contour_done),
            "stolz.sector_contour": ("stolz.sector_contour", contour_done),
            "ritt.resolvent_sample_points": ("ritt.resolvent_sample_points", points_done),
            "sqfun.square_function": ("sqfun.square_function", terms_done),
            "numlin.mat_power_seq": ("numlin.mat_power_seq", powers_done),
            "sqfun.rad_norm": ("sqfun.rad_norm", rad_done),
        }

    # -- reporting -------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls, inclusive seconds and self seconds per span name."""
        child_time = defaultdict(float)
        for sid, name, t0, t1, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for sid, name, t0, t1, parent, op in self.spans:
            names = [name]
            if name.startswith("numlin.op_norm."):
                names.append("numlin.op_norm")
            for n in names:
                calls[n] += 1
                incl[n] += t1 - t0
                self_s[n] += (t1 - t0) - child_time[sid]
        out = {}
        for span in TIMED_SPANS + ("bench.op",):
            out[f"{span}.calls"] = calls[span] / passes
            out[f"{span}.s"] = incl[span] / passes
            if span != "bench.op":
                out[f"{span}.self_s"] = self_s[span] / passes
        for name in ("stolz.contour.nodes", "ritt.resolvent_sample_points.points",
                     "sqfun.square_function.terms", "sqfun.rad_norm.patterns"):
            out[name] = self.counts[name] / passes
        out["numlin.mat_power_seq.mb"] = self.maxima["numlin.mat_power_seq.mb"]
        out["numlin.op_norm.gap_max"] = self.maxima["numlin.op_norm.gap_max"]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
