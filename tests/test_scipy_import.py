"""No code path imports SciPy, the curve fit included.

``fit_model`` refines its rate with the NumPy search ``rabipi.optimize``,
which ``rabipi.estimate`` holds as its module attribute ``optimize``.  A
caller may rebind that attribute (a tracer counting the rates evaluated
does), and ``fit_model`` calls the search through it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabipi
import rabipi.estimate
import rabipi.optimize
from rabipi import DEFAULT_GRID, NoiseModel, fit_model, sample_dataset

#: Runs the fit-free entry points, then ``fit_model`` and each command that
#: fits, in a fresh interpreter, and prints the SciPy modules loaded after
#: each.
_CHILD = """
import json, os, sys

import rabipi, rabipi.cli
from rabipi import DEFAULT_GRID, McConfig, NoiseModel, estimate_pi, fit_model, \\
    run_mc, sample_dataset
from rabipi.cli import cli_main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

qubits = [NoiseModel(0.90, 0.05, 0.0, 1.0), NoiseModel(0.85, 0.08, 0.0, 1.0),
          NoiseModel(0.95, 0.02, 0.0, 1.0)]
assert run_mc(qubits, McConfig(runs_per_model=50)).failures == 0
ds = sample_dataset(qubits[0], DEFAULT_GRID, 8192, 7)
estimate_pi(ds)
csv = os.path.join(sys.argv[1], "q.csv")
codes = [cli_main(["simulate", "--seed", "7", "--out", csv]),
         cli_main(["estimate", csv]), cli_main(["mc", "--runs", "5"])]
before = scipy_modules()
fit_model(ds)
after = {"fit_model": scipy_modules()}
svg = os.path.join(sys.argv[1], "q.svg")
for argv in (["fit", csv], ["screen", csv], ["plot", csv, "--out", svg],
             ["report", csv, csv]):
    codes.append(cli_main(argv))
    after[argv[0]] = scipy_modules()
print(json.dumps({"codes": codes, "before": before, "after": after}))
"""


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    src = str(Path(rabipi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _CHILD,
                           str(tmp_path_factory.mktemp("child"))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_fit_free_paths_load_no_scipy(child):
    assert child["codes"][:3] == [0, 0, 0]
    assert child["before"] == []


def test_fitting_paths_load_no_scipy(child):
    assert child["codes"][3:] == [0, 0, 0, 0]
    assert child["after"] == {step: [] for step in
                              ("fit_model", "fit", "screen", "plot", "report")}


def test_fit_model_calls_through_the_module_attribute(monkeypatch):
    search = rabipi.estimate.optimize
    assert search is rabipi.optimize

    class Counting:
        calls = 0

        def minimize_on_bracket(self, *args, **kwargs):
            self.calls += 1
            return search.minimize_on_bracket(*args, **kwargs)

    ds = sample_dataset(NoiseModel(0.9, 0.05, 0.3, 1.2), DEFAULT_GRID, 8192, 3)
    plain = fit_model(ds)
    counting = Counting()
    monkeypatch.setattr(rabipi.estimate, "optimize", counting)
    assert fit_model(ds) == plain
    assert counting.calls == 1

