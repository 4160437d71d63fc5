"""Benchmark entry point: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Set-up (import, input generation, fixture loading and one untimed warm-up
operation) runs from a fresh import at least three times, and again until a
second of it has been measured; its median is reported.  The
timed loop then runs whole rounds of operations until ``--seconds`` have
passed, checks every output against an independent computation, and prints
one JSON object as the last line of standard output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps pcflab's public functions and
reports the per-layer metrics instead (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from checkers import TABLE_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 1.0, 20
MODULES = ("ring", "intervals", "continuant", "pcf", "converge", "variety", "search", "skolem", "cli")
FAILED = object()


def load_library():
    """Import pcflab afresh, so every set-up pays the import and starts with empty caches."""
    for name in [m for m in sys.modules if m == "pcflab" or m.startswith("pcflab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"pcflab.{m}") for m in MODULES})


def setup(wl, seed):
    gc.collect()
    t0 = perf_counter()
    lib = load_library()
    first = wl.make_round(seed, 0)
    if wl.name == "tables":
        for name in TABLE_NAMES:
            lib.search.load_table(name)
    wl.run(lib, wl.make_round(seed, -1)[0])
    return perf_counter() - t0, lib, first


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(wl, lib, seed, seconds, items):
    """Whole rounds until ``seconds`` pass; peak RSS is read after the first round."""
    done, times, failed, rss = [], [], 0, None
    start, index = perf_counter(), 0
    while True:
        for item in items:
            t0 = perf_counter()
            try:
                out = wl.run(lib, item)
            except Exception as exc:  # counted, reported, and the run goes on
                print(f"operation failed: {item[0]!r}: {exc!r}", file=sys.stderr)
                out, failed = FAILED, failed + 1
            times.append(perf_counter() - t0)
            done.append((item, out))
        if rss is None:
            rss = peak_rss_mb()
        index += 1
        if perf_counter() - start >= seconds:
            return done, times, failed, rss
        items = wl.make_round(seed, index)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pcflab" / "__init__.py").is_file():
        print(f"error: pcflab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        elapsed, lib, items = setup(wl, args.seed)
        setup_times.append(elapsed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, lib)
        tracer.context = wl.name
    done, times, failed, rss = timed_loop(wl, lib, args.seed, args.seconds, items)
    checked = [(wl, item, out) for item, out in done]
    if tracer:
        # one traced round of every other workload, so each per-layer metric
        # is read on the workload it belongs to
        for other in WORKLOADS.values():
            if other is not wl:
                tracer.context = other.name
                checked += [(other, it, other.run(lib, it)) for it in other.make_round(args.seed, 0)]

    problems = [p for w, item, out in checked if out is not FAILED for p in w.check(item, out)]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if tracer:
        metrics = tracing.per_layer(tracer, times)
    else:
        ms = [t * 1e3 for t in times]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (p90(ms), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
