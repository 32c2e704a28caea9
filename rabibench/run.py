"""The rabipi benchmark: one closed-loop client, one fresh process per workload.

    python3 rabibench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  For each workload it
prints one line per metric (name, value, unit, sample count) and then, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` reports the per-layer metrics of a separate traced run.  The
exit code is 1 when any output check failed and 2 when the program could
not be run at all (then no JSON line is printed).  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("mc_protocol", "mc_lowshot", "triage", "report")
#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_SAMPLES = 3
#: Wall-clock budget of one workload, set-up processes included.
BUDGET_S = 170
#: Reference-kernel time (worker.reference_kernel) that defines "reference
#: speed", about its median on the 2-core machine the bounds were set on.
#: Call times are scaled by REF_S / (the kernel's time beside the call).
REF_S = 2.5e-3
#: Single-threaded numerics in every workload process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def _worker(argv, deadline):
    """Run one workload process to completion and return its JSON result.

    The process is killed and waited for if it runs past ``deadline``.
    """
    env = dict(os.environ, **THREAD_ENV)
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {argv} timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {argv} exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _tail_pct(times_ms, pct):
    """The ``pct`` percentile, linearly interpolated between order statistics."""
    xs = sorted(times_ms)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(res, setups):
    """End-to-end metrics: name -> (value, unit, samples).

    Times are at reference speed: each call's wall time, and each set-up
    time in ``setups``, is scaled by how much slower or faster than REF_S
    the reference kernel ran beside it.  This removes most of the machine's
    own drift, which on a shared 2-core box moves plain wall times by
    15-35% from one run to the next.
    """
    if not res["times"]:
        raise WorkerError("no call succeeded")
    times_ms = [1e3 * t * REF_S / r for t, r in zip(res["times"], res["refs"])]
    n = len(times_ms)
    pct = res["tail_pct"]
    beyond = n - int(n * pct / 100)
    if beyond < 10:
        print(f"warning: only {beyond} calls beyond p{pct}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "call_ms_p50": (statistics.median(times_ms), "ms", n),
        "call_ms_tail": (_tail_pct(times_ms, pct), "ms", n),
        "items_per_s": (n * res["items_per_call"] / (sum(times_ms) / 1e3), "1/s", n),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (metrics, worker result)."""
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    deadline = time.monotonic() + BUDGET_S
    if trace:
        res = _worker(argv + ["--trace", "1"], deadline)
        n = res["traced_calls"]
        return {k: (v, unit, n) for k, (v, unit) in res["layers"].items()}, res
    setups = [_worker(argv + ["--setup-only"], deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(argv, deadline)
    setup_s = [r["setup_s"] * REF_S / r["setup_ref"] for r in setups + [res]]
    return end_to_end(res, setup_s), res


def report(name, metrics, res):
    """Print the human-readable lines and the JSON result line."""
    aliases = {"items_per_s": f"{res.get('item', 'items')}_per_s"}
    for key, (value, unit, n) in metrics.items():
        label = aliases.get(key, key)
        if key == "call_ms_tail":
            label += f" (p{res['tail_pct']})"
        print(f"{name:12s} {label:52s} {value:14.6g} {unit:10s} n={n}")
    if "times" in res:
        wall_ms = statistics.median(res["times"]) * 1e3
        speed = REF_S / statistics.median(res["refs"])
        print(f"{name:12s} {'call_ms_p50 (wall clock, not scaled)':52s} {wall_ms:14.6g} "
              f"{'ms':10s} n={len(res['times'])}")
        print(f"{name:12s} {'machine speed / reference speed':52s} {speed:14.6g} "
              f"{'ratio':10s} n={len(res['refs'])}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{name:12s} {'fail_frac':52s} {failed / attempted:14.6g} "
          f"{'fraction':10s} n={attempted}")
    for problem in res["problems"]:
        print(f"{name:12s} check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }), flush=True)
    return failed == 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="workload to run (default: all, one after another)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ok = True
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            metrics, res = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok = report(name, metrics, res) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
