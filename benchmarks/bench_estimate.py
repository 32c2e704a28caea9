"""Layer benchmark of the estimator: ``estimate_rows``, ``estimate_pi`` and
``run_mc`` at the sizes the paper's protocol and the low-shot Monte Carlo
use.

    python -m pytest benchmarks -q                       # time, print medians
    python -m pytest benchmarks -q --benchmark-json=out.json
    python -m pytest benchmarks -q --benchmark-disable   # run each case once

The inputs are fixed by their seeds and each case checks its output, so a
broken estimator fails here rather than timing garbage.  Tier-1 does not
collect this file (``testpaths`` names ``tests`` only).
"""

import math

import numpy as np
import pytest

from rabipi import (DEFAULT_GRID, Dataset, McConfig, NoiseModel, estimate_pi,
                    make_grid, run_mc)
from rabipi.estimate import estimate_rows
from rabipi.simulate import sample_counts

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
