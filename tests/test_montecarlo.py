import math
from collections import Counter

import numpy as np
import pytest

from rabipi.estimate import EstimateResult, PipelineError, estimate_pi
from rabipi.model import IDEAL, NoiseModel
from rabipi.montecarlo import (McConfig, McSummary, _run_seed, aggregate,
                               models_from_datasets, run_mc)
from rabipi.simulate import DEFAULT_GRID, exact_dataset, inject_step, \
    make_grid, sample_dataset

THREE_MODELS = [
    NoiseModel(0.90, 0.05, 0.0, 1.0),
    NoiseModel(0.85, 0.08, 0.1, 0.98),
    NoiseModel(0.95, 0.02, -0.1, 1.02),
]


#: The paper's three demo qubits, as in demos/02_error_characterization.py.
DEMO_QUBITS = [
    NoiseModel(0.90, 0.05, 0.0, 1.0),
    NoiseModel(0.85, 0.08, 0.0, 1.0),
    NoiseModel(0.95, 0.02, 0.0, 1.0),
]
#: Off-protocol model whose runs fail about 6% of the time at 256 shots.
FAILING = NoiseModel(0.9, 0.05, 1.5, 1.0)
LOWSHOT = dict(shots=256, grid=make_grid(0.0, 6.3, 0.05))


def reference_mc(models, cfg):
    """run_mc as a plain loop: one dataset and one estimate_pi per run."""
    pis, dts, integrals = [], [], []
    failed = Counter()
    for model in models:
        for run in range(cfg.runs_per_model):
            ds = sample_dataset(model, cfg.grid, cfg.shots,
                                seed=_run_seed(cfg.base_seed, model, run))
            try:
                r = estimate_pi(ds, cfg.estimate)
            except PipelineError as exc:
                failed[exc.step] += 1
                continue
            pis.append(r.pi_hat)
            dts.append(r.t2_hat - r.t1_hat)
            integrals.append(r.integral_I)
    pis, dts, integrals = sorted(pis), sorted(dts), sorted(integrals)
    return McSummary(
        n_runs=len(models) * cfg.runs_per_model,
        mean_pi=float(np.mean(pis)),
        std_pi=float(np.std(pis, ddof=1)),
        std_dt=float(np.std(dts, ddof=1)),
        std_I=float(np.std(integrals, ddof=1)),
        failures=sum(failed.values()),
        failures_by_step=dict(failed),
    )


def _result(pi_hat):
    return EstimateResult(alpha_hat=1, beta_hat=0, t1_hat=1.5, t2_hat=4.6,
                          integral_I=(4.6 - 1.5) / pi_hat, pi_hat=pi_hat,
                          c_hat=pi_hat / (4.6 - 1.5), t_minval=0.0,
                          t_maxval=3.1)


class TestRunMc:
    def test_150_run_protocol(self):
        s = run_mc(THREE_MODELS, McConfig(runs_per_model=50, shots=512))
        assert s.n_runs == 150
        assert s.failures + 150 - s.failures == s.n_runs
        assert s.std_pi >= 0 and s.std_dt >= 0 and s.std_I >= 0

    def test_deterministic(self):
        cfg = McConfig(runs_per_model=10, shots=1024, base_seed=3)
        assert run_mc(THREE_MODELS, cfg) == run_mc(THREE_MODELS, cfg)

    def test_order_independence(self):
        cfg = McConfig(runs_per_model=10, shots=1024, base_seed=3)
        a = run_mc(THREE_MODELS, cfg)
        b = run_mc(list(reversed(THREE_MODELS)), cfg)
        assert a.std_pi == b.std_pi
        assert a.std_dt == b.std_dt
        assert a.std_I == b.std_I

    def test_single_run_rejected(self):
        with pytest.raises(ValueError):
            McConfig(runs_per_model=1)

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError):
            run_mc([], McConfig(runs_per_model=5, shots=64))

    def test_shot_scaling(self):
        # quadrupling shots should roughly halve std_I (binomial sqrt-n law)
        lo = run_mc([IDEAL], McConfig(runs_per_model=150, shots=8192))
        hi = run_mc([IDEAL], McConfig(runs_per_model=150, shots=4 * 8192))
        assert 1.7 <= lo.std_I / hi.std_I <= 2.3

    def test_mean_consistent_with_noiseless_value(self):
        noiseless = estimate_pi(exact_dataset(IDEAL, DEFAULT_GRID)).pi_hat
        s = run_mc([IDEAL], McConfig(runs_per_model=150, shots=8192))
        bound = 4 * s.std_pi / math.sqrt(150) + 0.005
        assert abs(s.mean_pi - noiseless) <= bound


    @pytest.mark.parametrize("models,cfg,min_failures", [
        (DEMO_QUBITS, McConfig(runs_per_model=50, base_seed=11), 0),
        ([FAILING], McConfig(runs_per_model=100, base_seed=0, **LOWSHOT), 1),
    ], ids=["demo_qubits", "lowshot_failing"])
    def test_matches_reference_loop(self, models, cfg, min_failures):
        batch = run_mc(models, cfg)
        assert batch == reference_mc(models, cfg)
        assert batch.failures >= min_failures

    def test_failures_by_step(self):
        s = run_mc([FAILING], McConfig(runs_per_model=300, base_seed=0, **LOWSHOT))
        assert sum(s.failures_by_step.values()) == s.failures
        assert set(s.failures_by_step) <= {"refine_alpha_beta", "trapezoid_integral"}
        # ~6% failure rate; the band is about 3 binomial sigma either way
        assert 0.02 <= s.failures / s.n_runs <= 0.10

    def test_no_failures_gives_empty_breakdown(self):
        s = run_mc(DEMO_QUBITS, McConfig(runs_per_model=10))
        assert s.failures == 0
        assert s.failures_by_step == {}
        assert isinstance(hash(s), int)  # the breakdown keeps it hashable


class TestModelsFromDatasets:
    def test_closed_loop_recovery(self):
        # tolerances checked over 20 seeds before freezing this fixture
        truth = NoiseModel(0.9, 0.05, 0.0, 1.0)
        ds = sample_dataset(truth, DEFAULT_GRID, 8192, seed=13)
        m = models_from_datasets([ds])[0]
        assert m.alpha == pytest.approx(truth.alpha, abs=0.02)
        assert m.beta == pytest.approx(truth.beta, abs=0.02)
        assert m.c == pytest.approx(truth.c, abs=0.01)

    def test_exact_ideal_recovery(self):
        m = models_from_datasets([exact_dataset(IDEAL, DEFAULT_GRID)])[0]
        assert m.alpha == pytest.approx(1.0, abs=2e-3)   # grid extremum bias
        assert m.beta == pytest.approx(0.0, abs=2e-3)
        assert m.c == pytest.approx(1.0, abs=2e-3)
        assert m.phi0 == pytest.approx(0.0, abs=3e-3)

    def test_screened_dataset_rejected(self):
        ds = inject_step(sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0),
                         4.0, 0.15)
        with pytest.raises(PipelineError, match="screening"):
            models_from_datasets([ds])


class TestAggregate:
    def test_three_qubit_mean(self):
        results = [(f"q{i}", _result(p)) for i, p in enumerate([3.14, 3.15, 3.16])]
        rep = aggregate(results, sigma=0.0085)
        assert rep.mean_pi == pytest.approx(3.15)
        assert rep.error_bar == pytest.approx(0.017)
        assert "single-run" in rep.sigma_source

    def test_single_result(self):
        rep = aggregate([("q0", _result(3.141))], sigma=0.01)
        assert rep.mean_pi == pytest.approx(3.141)
        assert rep.error_bar == pytest.approx(0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], sigma=0.01)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            aggregate([("q0", _result(3.14))], sigma=0.0)
