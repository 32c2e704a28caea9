"""Print the seeds at which ``rabibench``'s ``triage`` workload fails its own
output check.

    python benchmarks/triage_seeds.py           # seeds 0-399 and 404
    python benchmarks/triage_seeds.py 71 95     # the seeds given

For each seed it builds the workload's 48 files in a temporary directory
and runs and checks the ``call`` of every file once, in process, as
``rabibench/worker.py`` does; ``rabibench`` itself is only read.  A failing
seed is printed with its number of failed files and the first problem.
Paired benchmark runs must use a seed at which the parent commit passes.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "rabibench")]

from workloads import Triage  # noqa: E402


def problems(seed):
    """The output check's message for each file of ``seed`` that fails it."""
    with tempfile.TemporaryDirectory() as workdir:
        w = Triage(seed, workdir)
        return [p for p in (w.check(i, w.call(i)) for i in range(w.cycle)) if p]


def main(argv):
    for seed in [int(a) for a in argv] or [*range(400), 404]:
        found = problems(seed)
        if found:
            print(f"seed {seed}: {len(found)} of {Triage.n_files} files fail: "
                  f"{found[0]}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
