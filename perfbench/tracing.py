"""Per-layer timing of pcflab, installed from outside the package.

``install`` replaces public functions and methods of the pcflab modules with
timing wrappers: a function is swapped in every pcflab module namespace that
imported it by name, a method on its class.  Nothing under ``src/`` changes.
Each call records its duration and its self time (duration minus traced
callees) under the current context, which the runner sets to the workload
whose operation is running.  Spans stay in memory; ``per_layer`` turns them
into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

from checkers import TABLE_NAMES


class Tracer:
    def __init__(self):
        self.context = ""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, label=None, before=None, after=None):
        """Timed stand-in for ``fn``.

        ``label(args)`` may refine the span name per call; ``after(args,
        result, token)`` sees each result, with ``token = before(args)``.
        """
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                key = (self.context, label(args) if label else name)
                self.calls[key] += 1
                self.total[key] += dt
                self.self_time[key] += dt - inner
            if after:
                after(args, result, token)
            return result

        return traced

    def count(self, name, n):
        self.counts[(self.context, name)] += n

    def mean(self, context, name, scale):
        key = (context, name)
        if not self.calls[key]:
            raise RuntimeError(f"no traced call of {name} in {context}")
        return self.total[key] / self.calls[key] * scale


def _divisor_count(n: int) -> int:
    n = abs(n)
    return 2 * sum(1 for d in range(1, n + 1) if n % d == 0)


def install(tracer: Tracer, lib) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    modules = [m for name, m in sys.modules.items() if name == "pcflab" or name.startswith("pcflab.")]

    def function(mod, attr, name, **kw):
        orig = getattr(mod, attr)
        traced = tracer.wrap(name, orig, **kw)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, traced)

    def method(cls, attr, name):
        orig = cls.__dict__[attr]
        if isinstance(orig, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, orig.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, orig))

    ring, search = lib.ring, lib.search
    method(ring.RingElem, "__mul__", "ring.mul")
    method(ring.RingElem, "__add__", "ring.add")
    method(ring.RingElem, "inverse", "ring.inverse")
    method(ring.ExtElem, "__mul__", "ring.ext_mul")
    function(ring, "sqrt_in_ring", "ring.sqrt_in_ring")
    function(lib.continuant, "cf_matrix", "continuant.cf_matrix")
    method(lib.pcf.Pcf, "parse", "pcf.parse")
    function(lib.pcf, "e_matrix", "pcf.e_matrix")
    function(lib.pcf, "quad_roots", "pcf.quad_roots")
    function(lib.converge, "verdict", "converge.verdict")
    function(lib.converge, "rate", "converge.rate")
    function(lib.intervals, "decimal_str", "", label=lambda a: f"intervals.decimal_str_{a[1]}")
    function(lib.intervals, "log10_interval", "intervals.log10_interval")
    function(lib.variety, "variety_residuals", "variety.variety_residuals")
    function(lib.variety, "curve21_residual", "variety.curve21_residual")

    def boxed(args, found, _):
        tracer.count("box.scanned", math.prod(len(axis) for axis in args[1]))
        tracer.count("box.kept", len(found))

    function(search, "box_search", "search.box_search", after=boxed)
    function(
        search,
        "unit_divisor_enum",
        "search.unit_divisor_enum",
        after=lambda args, cands, _: tracer.count("ecurve.enumerated", len(cands)),
    )

    # survivors out of divisor candidates: the unit-divisor enumeration for
    # Z[sqrt 2] targets, all integer divisors for integer targets
    def enumerated(args):
        return tracer.counts[(tracer.context, "ecurve.enumerated")]

    def solved(args, pts, before):
        cands = enumerated(args) - before
        tracer.count("ecurve.candidates", cands or _divisor_count(int(args[0].a)))
        tracer.count("ecurve.points", len(pts))

    function(search, "solve_e_curve", "search.solve_e_curve", before=enumerated, after=solved)

    function(
        search,
        "reproduce_table",
        "",
        label=lambda a: "search.reproduce_table." + getattr(a[0], "value", a[0]),
    )
    for name in ("oryx_check", "addax_check", "l2_scan"):
        function(lib.skolem, name, f"skolem.{name}")
    function(lib.cli, "main", "cli.main")


# (metric, context, span, scale, unit): mean duration of the span's calls
MEANS = [
    ("ring.mul_us", "tables", "ring.mul", 1e6, "us"),
    ("ring.add_us", "tables", "ring.add", 1e6, "us"),
    ("ring.sqrt_in_ring_us", "tables", "ring.sqrt_in_ring", 1e6, "us"),
    ("ring.inverse_us", "eval_stream", "ring.inverse", 1e6, "us"),
    ("ring.ext_mul_us", "eval_stream", "ring.ext_mul", 1e6, "us"),
    ("continuant.cf_matrix_us", "eval_stream", "continuant.cf_matrix", 1e6, "us"),
    ("pcf.e_matrix_us", "eval_stream", "pcf.e_matrix", 1e6, "us"),
    ("pcf.quad_roots_us", "eval_stream", "pcf.quad_roots", 1e6, "us"),
    ("converge.verdict_ms", "eval_stream", "converge.verdict", 1e3, "ms"),
    ("converge.rate_ms", "eval_stream", "converge.rate", 1e3, "ms"),
    ("intervals.decimal_str_50_ms", "eval_stream", "intervals.decimal_str_50", 1e3, "ms"),
    ("intervals.decimal_str_1000_ms", "precision", "intervals.decimal_str_1000", 1e3, "ms"),
    ("intervals.decimal_str_4000_ms", "precision", "intervals.decimal_str_4000", 1e3, "ms"),
    ("intervals.log10_interval_ms", "precision", "intervals.log10_interval", 1e3, "ms"),
    ("variety.variety_residuals_us", "tables", "variety.variety_residuals", 1e6, "us"),
    ("variety.curve21_residual_us", "tables", "variety.curve21_residual", 1e6, "us"),
    ("search.box_search_ms", "tables", "search.box_search", 1e3, "ms"),
    ("search.solve_e_curve_ms", "tables", "search.solve_e_curve", 1e3, "ms"),
    *[
        (f"search.reproduce_table.{t}_ms", "tables", f"search.reproduce_table.{t}", 1e3, "ms")
        for t in TABLE_NAMES
    ],
    ("skolem.oryx_check_ms", "tables", "skolem.oryx_check", 1e3, "ms"),
    ("skolem.addax_check_ms", "tables", "skolem.addax_check", 1e3, "ms"),
    ("skolem.l2_scan_ms", "tables", "skolem.l2_scan", 1e3, "ms"),
    ("cli.eval_ms", "eval_stream", "cli.main", 1e3, "ms"),
]
# (metric, context, numerator count, denominator count)
RATIOS = [
    ("search.box_hit_ratio", "tables", "box.kept", "box.scanned"),
    ("search.solve_e_curve_survivor_ratio", "tables", "ecurve.points", "ecurve.candidates"),
]


def per_layer(tracer: Tracer, op_times) -> dict:
    """Every per-layer metric, each read from the context of its home workload."""
    out = {}
    for metric, ctx, span, scale, unit in MEANS:
        out[metric] = (tracer.mean(ctx, span, scale), unit)
    for metric, ctx, num, den in RATIOS:
        out[metric] = (tracer.counts[(ctx, num)] / tracer.counts[(ctx, den)], "ratio")
    evals = tracer.calls[("eval_stream", "cli.main")]
    out["converge.verdict_calls_per_eval"] = (
        tracer.calls[("eval_stream", "converge.verdict")] / evals,
        "count",
    )
    out["cli.overhead_ms"] = (tracer.self_time[("eval_stream", "cli.main")] / evals * 1e3, "ms")
    out["trace.op_ms"] = (statistics.median(op_times) * 1e3, "ms")
    return out
