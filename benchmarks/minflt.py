"""Count the minor page faults of each ``rabibench`` workload call.

    python benchmarks/minflt.py                           # this checkout
    python benchmarks/minflt.py --workload mc_protocol --calls 500
    python benchmarks/minflt.py --rev a00bc69 --dirs 8    # a commit, 8 paths

Each workload is counted in a fresh process that runs it as
``rabibench/worker.py`` does, from the checkout's own ``rabibench`` (which is
only read) and ``src``: it builds the workload from the seed in
``.rabibench_work`` under the checkout, makes the warm-up call, then runs
``worker.Loop.timed`` and ``worker.reference_kernel`` by turns, reading
``resource.getrusage(RUSAGE_SELF).ru_minflt`` around each timed call.  It
prints the median faults per call of every workload, and the number of calls
whose output check failed.

glibc returns the top of its heap to the system once enough of it is free,
and the next call that needs the memory faults it back in.  Whether a call
crosses that line depends on every allocation of the process, down to the
length of the checkout's path.  ``--rev REV --dirs K`` therefore extracts
``git archive REV`` into K directories whose last path parts are 2 to 70
characters long and counts each; run it on a commit and on its parent to
compare them.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mc_protocol", "mc_lowshot", "triage", "report")
#: Single-threaded numerics, as ``rabibench/run.py`` runs every workload.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def count(checkout, name, seed, calls):
    """Faults of each of ``calls`` calls of workload ``name``, run in this
    process from ``checkout``, and the number of calls that failed."""
    sys.path[0] = os.path.join(checkout, "rabibench")  # the worker's own
    import worker
    worker._import_program()
    from workloads import WORKLOADS as classes

    workdir = os.path.join(checkout, ".rabibench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        loop = worker.Loop(classes[name](seed, workdir))
        loop.timed(-1)
        for _ in range(6):  # the worker's reference runs before its loop
            worker.reference_kernel()
        faults = []
        for i in range(calls):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            loop.timed(i)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            worker.reference_kernel()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return faults, loop.failed


def measure(checkout, name, seed, calls):
    """``count`` in a fresh process: (median faults per call, failed calls)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--checkout", checkout,
         "--workload", name, "--seed", str(seed), "--calls", str(calls)],
        env=dict(os.environ, **THREAD_ENV), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} in {checkout} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return statistics.median(res["faults"]), res["failed"]


def extract(rev, dirs, root):
    """``git archive rev`` extracted into ``dirs`` new directories under
    ``root``, their last path parts 2 to 70 characters long."""
    paths = []
    for i in range(dirs):
        length = 2 + 68 * i // max(dirs - 1, 1)
        path = os.path.join(root, f"{i:02d}".ljust(length, "x"))
        os.makedirs(path)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
        paths.append(path)
    return paths


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="workload to count (repeatable; default: all four)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--rev", help="count this commit instead of the checkout")
    p.add_argument("--dirs", type=int, default=8,
                   help="directories to extract --rev into (default 8)")
    p.add_argument("--root", default=tempfile.gettempdir(),
                   help="where to make the directories for --rev")
    p.add_argument("--checkout", help=argparse.SUPPRESS)  # one count, in process
    args = p.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if args.checkout:
        faults, failed = count(args.checkout, names[0], args.seed, args.calls)
        print(json.dumps({"faults": faults, "failed": failed}))
        return 0

    root = tempfile.mkdtemp(prefix="minflt-", dir=args.root) if args.rev else None
    try:
        checkouts = extract(args.rev, args.dirs, root) if args.rev else [ROOT]
        print(f"minor faults per call, median of {args.calls} calls, seed {args.seed}"
              + (f", {args.rev}" if args.rev else ""))
        print(f"{'path length':>12s}" + "".join(f"{n:>13s}" for n in names))
        table = {n: [] for n in names}
        failed = 0
        for checkout in checkouts:
            row = f"{len(checkout):12d}"
            for n in names:
                median, bad = measure(checkout, n, args.seed, args.calls)
                table[n].append(median)
                failed += bad
                row += f"{median:13g}"
            print(row, flush=True)
        if len(checkouts) > 1:
            print(f"{'median':>12s}" + "".join(
                f"{statistics.median(table[n]):13g}" for n in names))
            print(f"{'dirs > 0':>12s}" + "".join(
                f"{sum(v > 0 for v in table[n]):13d}" for n in names))
        if failed:
            print(f"{failed} calls failed their output check")
            return 1
    finally:
        if root:
            shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
