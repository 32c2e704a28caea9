"""One workload in one fresh process: set up, run a closed loop, report.

Run by ``run.py``; prints one JSON object as its last stdout line.  With
``--setup-only`` it stops after set-up and reports only ``setup_s``.
Without ``--trace`` it times each call with tracing off; with ``--trace 1``
it alternates untraced and traced passes over the same inputs and reports
the per-layer metrics of the traced passes, per workload call.
"""

import time

_T0 = time.perf_counter()  # set-up starts before the heavy imports

import argparse
import json
import math
import os
import resource
import shutil
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import rabipi from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import rabipi
    if os.path.dirname(os.path.dirname(os.path.abspath(rabipi.__file__))) != SRC:
        raise ImportError(f"rabipi imported from {rabipi.__file__}, not {SRC}")


class Loop:
    """Closed loop over a workload: one call at a time, each checked."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def timed(self, i):
        """Run and check call ``i``; return (wall seconds of the call, ok)."""
        self.attempted += 1
        t0 = time.perf_counter()
        dt = None
        try:
            out = self.w.call(i)
            dt = time.perf_counter() - t0
            problem = self.w.check(i, out)
        except Exception as exc:  # a raising call or check fails the call
            problem = f"{type(exc).__name__}: {exc}"
        if dt is None:
            dt = time.perf_counter() - t0
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"call {i}: {problem}")
        return dt, problem is None


@dataclass(frozen=True)
class _Record:
    t: float
    shots: int
    ones: int


def reference_kernel():
    """Time a fixed piece of work that does not touch rabipi.

    It mirrors the program's own mix: a seeded generator and a binomial
    draw per record, a frozen dataclass per record, then NumPy arrays and a
    line fit.  Its time tracks how fast this machine runs such code at the
    moment; the worker runs it beside every timed call.
    """
    import numpy as np

    t0 = time.perf_counter()
    records = []
    for i in range(100):
        p = 0.45 * (1.0 - math.cos(0.1 * i)) + 0.05
        ones = int(np.random.default_rng([12345, i]).binomial(256, p))
        records.append(_Record(0.1 * i, 256, ones))
    t = np.array([r.t for r in records])
    f = np.array([r.ones / r.shots for r in records])
    np.polyfit(t[:10], f[:10], 1)
    return time.perf_counter() - t0


def run_untraced(loop, seconds):
    """Call until ``seconds`` have passed.

    Returns the seconds of each successful call and, for each, the mean
    time of the reference kernel run just before and just after it.
    """
    times, refs = [], []
    deadline = time.perf_counter() + seconds
    before = reference_kernel()
    i = 0
    while time.perf_counter() < deadline:
        dt, ok = loop.timed(i)
        after = reference_kernel()
        if ok:
            times.append(dt)
            refs.append((before + after) / 2)
        before = after
        i += 1
    return times, refs


def run_traced(loop, seconds):
    """Alternate an untraced and a traced pass over each cycle of inputs.

    Returns (tracer, traced calls, traced seconds, untraced seconds); both
    passes of a cycle use the same call indices, so they do the same work.
    """
    from spans import Tracer

    tracer = Tracer()
    cycle = loop.w.cycle
    plain = traced = 0.0
    n_traced = 0
    deadline = time.perf_counter() + seconds
    c = 0
    while n_traced == 0 or time.perf_counter() < deadline:
        calls = range(c * cycle, (c + 1) * cycle)
        plain += sum(loop.timed(i)[0] for i in calls)
        with tracer:
            traced += sum(loop.timed(i)[0] for i in calls)
        n_traced += cycle
        c += 1
    return tracer, n_traced, traced, plain


#: Pipeline steps of ``estimate_pi`` that have their own function.
STEPS = ("rough_alpha_beta", "normalize", "find_crossing", "refine_alpha_beta",
         "refine_crossing_linear", "trapezoid_integral")
#: Span metric suffix -> (Tracer.totals field, scale, unit).
SPAN_FIELDS = {"calls": ("calls", 1, "count/call"),
               "busy_ms": ("busy", 1e3, "ms/call"),
               "self_ms": ("self", 1e3, "ms/call")}


def layer_metrics(tracer, n_calls, traced_s, plain_s):
    """Per-layer metrics per workload call, from the traced passes."""
    tot = tracer.totals()
    cnt = tracer.counters
    zero = {"calls": 0, "busy": 0.0, "self": 0.0}
    m = {}

    def span(name, *fields):
        t = tot.get(name, zero)  # a function a later version drops reads 0
        for f in fields:
            key, scale, unit = SPAN_FIELDS[f]
            m[f"{name}.{f}"] = (scale * t[key] / n_calls, unit)

    def counter(key, unit):
        m[key] = (cnt[key] / n_calls, unit)

    span("simulate.sample_dataset", "calls", "busy_ms")
    records = cnt["simulate.sample_dataset.records"]
    busy = tot.get("simulate.sample_dataset", zero)["busy"]
    m["simulate.sample_dataset.us_per_record"] = (
        1e6 * busy / records if records else 0.0, "us")
    span("model.noisy_prob", "calls")
    span("estimate.estimate_pi", "calls", "busy_ms", "self_ms")
    counter("estimate.estimate_pi.failed", "count/call")
    counter("estimate.estimate_pi.wild", "count/call")
    calls = tot.get("estimate.estimate_pi", zero)["calls"]
    m["estimate.estimate_pi.fail_frac"] = (
        cnt["estimate.estimate_pi.failed"] / calls if calls else 0.0, "fraction")
    for step in STEPS:
        counter(f"estimate.estimate_pi.failed.{step}", "count/call")
    for step in STEPS:
        span(f"estimate.{step}", "calls", "busy_ms")
    span("estimate.fit_model", "calls", "busy_ms")
    counter("estimate.fit_model.nfev", "count/call")
    span("estimate.screen_dataset", "calls", "busy_ms", "self_ms")
    counter("estimate.screen_dataset.rejected", "count/call")
    span("montecarlo.run_mc", "calls", "busy_ms", "self_ms")
    span("montecarlo.models_from_datasets", "busy_ms")
    span("dataio.load_csv", "calls", "busy_ms")
    counter("dataio.load_csv.bytes", "B/call")
    span("dataio.parse_csv", "busy_ms")
    counter("dataio.parse_csv.records", "count/call")
    span("plotting.render_svg", "calls", "busy_ms")
    counter("plotting.render_svg.bytes_out", "B/call")
    span("cli.cli_main", "calls", "busy_ms", "self_ms")
    m["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".rabibench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload)
        loop.timed(-1)  # warm-up: lazy imports and first-call costs
        setup_s = time.perf_counter() - _T0
        ref = sorted(reference_kernel() for _ in range(5))[2]
        result = {"setup_s": setup_s, "setup_ref": ref}
        if not args.setup_only:
            if args.trace:
                tracer, n, traced_s, plain_s = run_traced(loop, args.seconds)
                result["layers"] = layer_metrics(tracer, n, traced_s, plain_s)
                result["traced_calls"] = n
            else:
                result["times"], result["refs"] = run_untraced(loop, args.seconds)
                result["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            result.update(attempted=loop.attempted, failed=loop.failed,
                          problems=loop.problems, item=workload.item,
                          items_per_call=workload.items_per_call,
                          tail_pct=workload.tail_pct)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another worker still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
