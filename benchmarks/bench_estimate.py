"""Layer benchmark of the estimator: ``estimate_rows``, ``estimate_pi`` and
``run_mc`` at the sizes the paper's protocol and the low-shot Monte Carlo
use, each row-wise step of ``estimate_rows`` on the protocol batch (so a
saving can be placed in a step; ``rabibench``'s trace does not see inside
``estimate_rows``), ``estimate_rows`` on grids it has not seen last (so
every call builds its windows' tables), ``load_csv``, ``fit_model`` and
``render_svg`` on one file as triage
reads, fits and plots it, ``fit_model`` on a file whose best curve has a level at 1, on one whose
rate search bisects, and on files of two grids in turn (so no scan finds
its grid's columns built), one step of its rate search (one kernel call of
three rates) and the whole search from the scan's bracket, and ``report`` on three files as ``rabipi
report`` runs it, with its screen, ``screen_rows``, on its own, and
``screen_dataset`` on a clean file, which the scan's bracket accepts with
no rate search, and on a file with a step, which the search refines.

    python -m pytest benchmarks -q                       # time, print medians
    python -m pytest benchmarks -q --benchmark-json=out.json
    python -m pytest benchmarks -q --benchmark-disable   # run each case once

The inputs are fixed by their seeds and each case checks its output, so a
broken estimator fails here rather than timing garbage.  Tier-1 does not
collect this file (``testpaths`` names ``tests`` only).
"""

import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

import rabipi.estimate as est
from rabipi import (DEFAULT_GRID, Dataset, McConfig, NoiseModel, estimate_pi,
                    make_grid, report, run_mc)
from rabipi.dataio import load_csv, save_csv
from rabipi.estimate import estimate_rows, fit_model, screen_dataset, screen_rows
from rabipi.plotting import render_svg
from rabipi.simulate import inject_step, sample_counts, sample_dataset

#: The paper's three demo qubits; 50 runs each is the 150-run protocol.
DEMO_QUBITS = [NoiseModel(0.90, 0.05, 0.0, 1.0),
               NoiseModel(0.85, 0.08, 0.0, 1.0),
               NoiseModel(0.95, 0.02, 0.0, 1.0)]
#: The low-shot model that fails in about 6% of runs (0.05 grid, 256 shots).
LOWSHOT_MODEL = NoiseModel(0.9, 0.05, 1.5, 1.0)
LOWSHOT_GRID = make_grid(0.0, 6.3, 0.05)


@pytest.fixture(scope="module")
def protocol_batch():
    """150 x 64 fractions: 50 runs of each demo qubit at 8192 shots."""
    ones = np.concatenate([sample_counts(m, DEFAULT_GRID, 8192, seed, 50)
                           for seed, m in enumerate(DEMO_QUBITS)])
    return DEFAULT_GRID.times(), ones / 8192


@pytest.fixture(scope="module")
def lowshot_batch():
    """50 x 127 fractions of the failing low-shot model."""
    return (LOWSHOT_GRID.times(),
            sample_counts(LOWSHOT_MODEL, LOWSHOT_GRID, 256, 3, 50) / 256)


@pytest.fixture(scope="module")
def one_file():
    """The first demo qubit at 8192 shots on DEFAULT_GRID, a triage file."""
    return sample_dataset(DEMO_QUBITS[0], DEFAULT_GRID, 8192, seed=5)


@pytest.fixture(scope="module")
def one_file_on_disk(one_file, tmp_path_factory):
    """``one_file`` written as ``rabipi simulate`` writes it, labelled as a
    triage file is."""
    path = tmp_path_factory.mktemp("csv") / "f0.csv"
    save_csv(Dataset(one_file.t, one_file.shots, one_file.ones, label="f0"), path)
    return path


@pytest.fixture(scope="module")
def two_grid_files():
    """The first demo qubit at 8192 shots on DEFAULT_GRID and on its 64
    times shifted by 0.05: two grids of one length and step."""
    return [sample_dataset(DEMO_QUBITS[0], grid, 8192, seed=5)
            for grid in (DEFAULT_GRID, make_grid(0.05, 6.35, 0.1))]


@pytest.fixture(scope="module")
def three_files():
    """One file of each demo qubit at 8192 shots on DEFAULT_GRID, as the
    ``report`` workload's triplets are."""
    return [sample_dataset(m, DEFAULT_GRID, 8192, seed=20 + q, label=f"q{q}")
            for q, m in enumerate(DEMO_QUBITS)]


@pytest.fixture(scope="module")
def protocol_steps(protocol_batch):
    """The protocol batch as each row-wise step of ``estimate_rows`` gets
    it: the fractions, both normalizations, the rough and the refined
    crossings, and the failures so far (none)."""
    t, f = protocol_batch
    fails = est._Failures(len(f))
    with np.errstate(all="ignore"):
        alpha1, beta1 = est._rough_alpha_beta(f, fails)
        f1 = est._normalize(f, alpha1, beta1, fails)
        t1, t2 = est._find_half_period(t, f1, est.LEVEL, fails)
        alpha5, beta5, _, _ = est._refine_alpha_beta(t, f1, t1, t2, est.DELTA, fails)
        alpha, beta = alpha1 * alpha5, beta1 + alpha1 * beta5
        f2 = est._normalize(f, alpha, beta, fails)
        u1, u2 = est._refine_crossing_linear(t, f2, np.array((t1, t2)),
                                             est.REFINE_WINDOW, est.LEVEL, fails)
    assert fails.ok.all()
    return SimpleNamespace(t=t, f=f, fails=fails, f1=f1, t1=t1, t2=t2, alpha=alpha,
                           beta=beta, f2=f2, u1=u1, u2=u2)


def quiet(step, *args):
    """``step(*args)`` with floating-point warnings off, as the pipeline
    runs it."""
    with np.errstate(all="ignore"):
        return step(*args)


def test_step_rough_alpha_beta(benchmark, protocol_steps):
    s = protocol_steps
    alpha, beta = benchmark(quiet, est._rough_alpha_beta, s.f, s.fails)
    assert np.all((0.8 < alpha) & (alpha < 1) & (0 <= beta) & (beta < 0.1))


def test_step_normalize(benchmark, protocol_steps):
    s = protocol_steps
    f2 = benchmark(quiet, est._normalize, s.f, s.alpha, s.beta, s.fails)
    assert np.array_equal(f2, s.f2)


def test_step_find_half_period(benchmark, protocol_steps):
    s = protocol_steps
    t1, t2 = benchmark(quiet, est._find_half_period, s.t, s.f1, est.LEVEL, s.fails)
    assert np.all(np.abs(t1 - math.pi / 2) < 0.1) and np.all(np.abs(t2 - 1.5 * math.pi) < 0.1)


def test_step_refine_alpha_beta(benchmark, protocol_steps):
    s = protocol_steps
    alpha5, beta5, _, t_maxval = benchmark(quiet, est._refine_alpha_beta, s.t, s.f1,
                                           s.t1, s.t2, est.DELTA, s.fails)
    assert np.all(np.abs(alpha5 - 1) < 0.05) and np.all(np.abs(t_maxval - math.pi) < 0.1)


def test_step_refine_crossing_linear(benchmark, protocol_steps):
    s = protocol_steps
    u1, u2 = benchmark(quiet, est._refine_crossing_linear, s.t, s.f2,
                       np.array((s.t1, s.t2)), est.REFINE_WINDOW, est.LEVEL, s.fails)
    assert np.array_equal(u1, s.u1) and np.array_equal(u2, s.u2)


def test_step_trapezoid_integral(benchmark, protocol_steps):
    s = protocol_steps
    integral = benchmark(quiet, est._trapezoid_integral, s.t, s.f2, s.u1, s.u2,
                         est.LEVEL, s.fails)
    assert np.all(np.abs(integral - 1) < 0.05)


def test_estimate_rows_cold_grids(benchmark, protocol_batch):
    # one row on DEFAULT_GRID's times shifted by 0, 0.01 and 0.02 in turn:
    # the windows' tables are kept for the last two grids (four tables, two
    # per grid), so no call finds its grid's built
    t, fractions = protocol_batch
    shifted = [t + s for s in (0.0, 0.01, 0.02)]
    rows = benchmark(lambda: [estimate_rows(ts, fractions[:1]) for ts in shifted])
    assert all(r.ok.all() and abs(r.pi_hat[0] - math.pi) < 0.1 for r in rows)


def test_estimate_rows_protocol(benchmark, protocol_batch):
    rows = benchmark(estimate_rows, *protocol_batch)
    assert rows.ok.all()
    assert np.all(np.abs(rows.pi_hat - math.pi) < 0.1)


def test_estimate_rows_lowshot(benchmark, lowshot_batch):
    rows = benchmark(estimate_rows, *lowshot_batch)
    assert 0 < rows.ok.sum() < len(rows.ok)


def test_estimate_pi_one_row(benchmark, protocol_batch):
    t, fractions = protocol_batch
    ds = Dataset(t, 8192, np.rint(fractions[0] * 8192).astype(np.int64))
    r = benchmark(estimate_pi, ds)
    assert abs(r.pi_hat - math.pi) < 0.1


def test_run_mc_demo_qubits(benchmark):
    s = benchmark(run_mc, DEMO_QUBITS, McConfig(runs_per_model=50))
    assert s.n_runs == 150 and s.failures == 0
    assert abs(s.mean_pi - math.pi) < 0.01


def test_run_mc_lowshot(benchmark):
    # the rabibench mc_lowshot call on its failing model
    s = benchmark(run_mc, [LOWSHOT_MODEL],
                  McConfig(runs_per_model=50, shots=256, grid=LOWSHOT_GRID))
    assert s.n_runs == 50 and 0 < s.failures < 10
    assert abs(s.mean_pi - math.pi) < 0.05


def test_load_csv_one_file(benchmark, one_file, one_file_on_disk):
    ds = benchmark(load_csv, one_file_on_disk)
    assert ds.label == "f0" and ds == Dataset(one_file.t, one_file.shots, one_file.ones,
                                              label="f0")


def test_fit_model_one_file(benchmark, one_file):
    m = benchmark(fit_model, one_file)
    truth = DEMO_QUBITS[0]
    assert abs(m.alpha - truth.alpha) < 0.02 and abs(m.beta - truth.beta) < 0.02
    assert abs(m.phi0 - truth.phi0) < 0.05 and abs(m.c - truth.c) < 0.02


def test_fit_kernel_three_rates(benchmark, one_file):
    # one step of the rate search on one file: the kernel at c - e, c, c + e
    # around the fitted rate, with the file's mean and centred fractions,
    # which the search computes once, computed in the call
    t, f = one_file.times(), one_file.fractions()[None]
    c = fit_model(one_file).c + np.array([[-1e-5, 0.0, 1e-5]])
    rss, alpha, beta, phi0 = benchmark(lambda: est._fit_at_rates(t, est._centred(f), c))
    assert rss.shape == (1, 3) and np.all(rss < 0.01) and rss[0, 1] < rss[0, ::2].min()
    m = DEMO_QUBITS[0]
    assert np.all(np.abs(alpha - m.alpha) < 0.02) and np.all(np.abs(beta - m.beta) < 0.02)
    assert np.all(np.abs(phi0 - m.phi0) < 0.05)


def test_refine_one_file(benchmark, one_file):
    # the rate search from the scan's bracket, as fit_model runs it after
    # its scan: 4 or 5 kernel calls of three rates
    t, f = one_file.times(), one_file.fractions()[None]
    lo, hi = est._brackets(t, f)
    alpha, beta, phi0, c = benchmark(est._refine, t, f, lo, hi)
    m = fit_model(one_file)
    assert [a[0] for a in (alpha, beta, phi0, c)] == [m.alpha, m.beta, m.phi0, m.c]
    assert abs(c[0] - DEMO_QUBITS[0].c) < 0.02


def test_fit_model_constraint_bound_file(benchmark):
    # file 92 of the tests' fit_corpus: low rate, 256 shots, and a best
    # curve whose top level sits at 1.  The kernel fits the levels on that
    # edge wherever the unconstrained top level is above 1, and the rate
    # search takes eight steps, two of them bisections.
    ds = sample_dataset(NoiseModel(0.8, 0.1, 0.0, 0.3), make_grid(0.0, 6.3, 0.05),
                        256, seed=92)
    m = benchmark(fit_model, ds)
    assert m.alpha + m.beta == 1 and abs(m.c - 0.2702695) < 1e-6


def test_fit_model_kinked_file(benchmark):
    # file 46 of the tests' fit_corpus: its minimum lies where its lowest
    # level comes to sit at 0, so the residual's curvature jumps there.
    # Three parabolic steps fail and the search bisects its bracket: 9 steps
    # of 3 rates.
    ds = sample_dataset(NoiseModel(0.8, 0.1, 2.0, 0.3), DEFAULT_GRID, 256, seed=46)
    m = benchmark(fit_model, ds)
    assert m.beta == 0 and abs(m.c - 0.2789382) < 1e-6


def test_fit_model_alternating_grids(benchmark, two_grid_files):
    # each fit's grid differs from the one before it, so every scan builds
    # its columns afresh
    models = benchmark(lambda: [fit_model(ds) for ds in two_grid_files])
    truth = DEMO_QUBITS[0]
    for m in models:
        assert abs(m.alpha - truth.alpha) < 0.02 and abs(m.beta - truth.beta) < 0.02
        assert abs(m.phi0 - truth.phi0) < 0.05 and abs(m.c - truth.c) < 0.02


def test_render_svg_one_file(benchmark, one_file):
    svg = benchmark(render_svg, one_file, fit_model(one_file),
                    estimate_pi(one_file))
    tags = [e.tag.rsplit("}", 1)[-1] for e in ET.fromstring(svg).iter()]
    assert tags.count("circle") == 64 and tags.count("polyline") == 1
    assert svg.count('class="crossing"') == 2


def test_report_three_files(benchmark, three_files):
    rep = benchmark(report, three_files, runs_per_model=50)
    assert all(v for _, v in rep.verdicts) and len(rep.estimates) == 3
    assert rep.mc.n_runs == 150 and rep.mc.failures == 0
    assert abs(rep.mean_pi - math.pi) < 0.05


def test_screen_rows_three_files(benchmark, three_files):
    t = three_files[0].t
    fractions = np.array([ds.fractions() for ds in three_files])
    shots = np.array([ds.shots for ds in three_files])
    verdicts = benchmark(screen_rows, t, fractions, shots)
    assert verdicts == tuple(screen_dataset(ds) for ds in three_files)
    assert all(verdicts)


def test_screen_dataset_clean_file(benchmark, one_file):
    assert benchmark(screen_dataset, one_file)


def test_screen_dataset_stepped_file(benchmark, one_file):
    v = benchmark(screen_dataset, inject_step(one_file, 4.0, 0.15))
    assert not v and v.location == 4.0
