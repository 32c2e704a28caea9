"""Tests of the benchmark's own code.

    python3 -m pytest -q rabibench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import rabipi.cli  # noqa: E402
import rabipi.estimate  # noqa: E402
import rabipi.montecarlo  # noqa: E402
from rabipi.montecarlo import McSummary  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import McProtocol, Report, Triage  # noqa: E402


def _traced_call(workload, i=0):
    tracer = Tracer()
    with tracer:
        out = workload.call(i)
    assert workload.check(i, out) is None
    return tracer.totals(), tracer.counters


def test_mc_protocol_counts_are_exact():
    totals, counters = _traced_call(McProtocol(0, None))
    assert totals["montecarlo.run_mc"]["calls"] == 1
    assert totals["simulate.sample_dataset"]["calls"] == 150
    assert totals["model.noisy_prob"]["calls"] == 9600
    assert totals["estimate.estimate_pi"]["calls"] == 150
    assert totals["estimate.find_crossing"]["calls"] == 300
    assert totals["estimate.fit_model"]["calls"] == 0
    assert counters["simulate.sample_dataset.records"] == 9600


def test_triage_counts_are_exact(tmp_path):
    workload = Triage(0, str(tmp_path))
    clean = next(k for k, (_, _, jump) in enumerate(workload.files) if jump is None)
    totals, counters = _traced_call(workload, clean)
    assert totals["estimate.fit_model"]["calls"] == 3
    assert totals["cli.cli_main"]["calls"] == 4
    assert totals["dataio.load_csv"]["calls"] == 4
    assert totals["plotting.render_svg"]["calls"] == 1
    assert counters["dataio.parse_csv.records"] == 4 * 64
    assert counters["estimate.fit_model.nfev"] > 0
    assert counters["estimate.screen_dataset.rejected"] == 0
    assert totals["simulate.sample_dataset"]["calls"] == 0


def test_triage_step_file_is_rejected(tmp_path):
    workload = Triage(0, str(tmp_path))
    step = next(k for k, (_, _, jump) in enumerate(workload.files) if jump is not None)
    _, counters = _traced_call(workload, step)
    assert counters["estimate.screen_dataset.rejected"] == 1


def test_uninstall_restores_every_binding():
    before = (rabipi.montecarlo.estimate_pi, rabipi.cli.fit_model,
              rabipi.estimate.optimize, rabipi.estimate_pi)
    with Tracer():
        assert rabipi.montecarlo.estimate_pi is not before[0]
        assert rabipi.montecarlo.estimate_pi is rabipi.estimate.estimate_pi
        assert rabipi.cli.fit_model is not before[1]
    after = (rabipi.montecarlo.estimate_pi, rabipi.cli.fit_model,
             rabipi.estimate.optimize, rabipi.estimate_pi)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = tracer.wrap("x.inner", inner)

    def outer():
        time.sleep(0.01)
        inner_t()
        inner_t()

    tracer.wrap("x.outer", outer)()
    tot = tracer.totals()
    outer_t, inner_tot = tot["x.outer"], tot["x.inner"]
    assert inner_tot["calls"] == 2 and outer_t["calls"] == 1
    assert outer_t["self"] == pytest.approx(outer_t["busy"] - inner_tot["busy"])
    assert 0.005 < outer_t["self"] < 0.03


def test_failures_are_counted_by_step():
    tracer = Tracer()

    def fails():
        raise rabipi.estimate.PipelineError("find_crossing", "none")

    with pytest.raises(rabipi.estimate.PipelineError):
        tracer.wrap("estimate.estimate_pi", fails)()
    assert tracer.counters["estimate.estimate_pi.failed"] == 1
    assert tracer.counters["estimate.estimate_pi.failed.find_crossing"] == 1


def test_checks_reject_broken_outputs(tmp_path):
    proto = McProtocol(0, None)
    good = McSummary(150, 3.1416, 0.0124, 0.009, 0.006, 0)
    assert proto.check(0, good) is None
    assert proto.check(0, good.__class__(150, 3.30, 0.0124, 0.009, 0.006, 0))
    assert proto.check(0, good.__class__(150, 3.1416, 0.0, 0.009, 0.006, 0))
    assert proto.check(0, good.__class__(150, float("nan"), 0.0124, 0.009, 0.006, 0))
    report = Report(0, str(tmp_path))
    assert report.check(0, (1, "", "error: boom"))
    assert report.check(0, (0, "mean_pi = 3.5000 +/- 0.0250 (2 sigma)", ""))
    assert report.check(0, (0, "mean_pi = 3.1420 +/- 0.0250 (2 sigma)", "")) is None


def _result(cwd, *args):
    proc = subprocess.run([sys.executable, "rabibench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_metric(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)[key]}
    proc, lines = _result(ROOT, "--workload", "mc_lowshot", "--seed", "3",
                          "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == names


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "rabibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _result(tmp_path, "--workload", "triage", "--seconds", "1")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
