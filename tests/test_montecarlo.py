import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import rabipi.estimate
import rabipi.montecarlo
import rabipi.simulate
from rabipi.estimate import PipelineError, RowEstimates, estimate_pi, \
    estimate_rows, screen_dataset
from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.montecarlo import (McConfig, McSummary, Report, _experiment, _run_seed,
                               model_from_estimate, report, run_mc)
from rabipi.simulate import DEFAULT_GRID, Dataset, exact_dataset, \
    inject_step, make_grid, sample_counts, sample_dataset

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
#: Faster rates and another phase, where a crossing search from fixed starts
#: paired two rising crossings (pi_hat near 2) or no half-period at all.
OFF_RATE = [
    NoiseModel(0.9, 0.05, 0.0, 1.6),
    NoiseModel(0.9, 0.05, 0.0, 1.45),
    NoiseModel(0.9, 0.05, 2.0, 2.0),
]
#: Off-protocol model whose runs fail about 6% of the time at 256 shots.
FAILING = NoiseModel(0.9, 0.05, 1.5, 1.0)
LOWSHOT = dict(shots=256, grid=make_grid(0.0, 6.3, 0.05))


def reference_mc(models, cfg):
    """run_mc as a plain loop: one dataset and one estimate_pi per run.

    Run r of a model is the dataset made of row r of the model's block of
    counts, the one-generator stream of ``_run_seed(base_seed, model, k)``,
    k the number of earlier models equal to it.  The spacing and the
    integral are pooled times the model's rate.
    """
    times = cfg.grid.times()
    pis, dts, integrals = [], [], []
    failed = Counter()
    for k, model in enumerate(models):
        block = sample_counts(model, cfg.grid, cfg.shots,
                              _run_seed(cfg.base_seed, model, models[:k].count(model)),
                              cfg.runs_per_model)
        for ones in block:
            ds = Dataset(times, cfg.shots, ones)
            try:
                r = estimate_pi(ds)
            except PipelineError as exc:
                failed[exc.step] += 1
                continue
            pis.append(r.pi_hat)
            dts.append((r.t2_hat - r.t1_hat) * model.c)
            integrals.append(r.integral_I * model.c)
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

    @pytest.mark.parametrize("shots", [0, -8])
    def test_no_shots_rejected(self, shots):
        with pytest.raises(ValueError, match=f"shots must be >= 1, got {shots}"):
            McConfig(shots=shots)

    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
    def test_seed_outside_int64_rejected(self, seed):
        # _run_seed packs the base seed as a signed 64-bit integer
        with pytest.raises(ValueError, match="base_seed"):
            McConfig(base_seed=seed)

    @pytest.mark.parametrize("seed", [2**63 - 1, -2**63])
    def test_seed_at_int64_ends_runs(self, seed):
        assert run_mc([IDEAL], McConfig(runs_per_model=2, shots=64,
                                        base_seed=seed)).n_runs == 2

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
        (OFF_RATE, McConfig(runs_per_model=50, base_seed=11), 0),
        ([FAILING, DEMO_QUBITS[0], FAILING, FAILING],
         McConfig(runs_per_model=30, base_seed=2, **LOWSHOT), 1),
    ], ids=["demo_qubits", "lowshot_failing", "off_rate", "equal_models"])
    def test_matches_reference_loop(self, models, cfg, min_failures):
        batch = run_mc(models, cfg)
        assert batch == reference_mc(models, cfg)
        assert batch.failures >= min_failures

    @pytest.fixture
    def spied_run_mc(self, monkeypatch):
        """run_mc with its generators and estimate batches recorded."""
        seeds, batches = [], []

        def counted_rng(seed):
            seeds.append(seed)
            return np.random.default_rng(seed)

        def counted_rows(times, fractions):
            batches.append(fractions)
            return estimate_rows(times, fractions)

        def spied(models, cfg):
            with monkeypatch.context() as m:
                m.setattr(rabipi.simulate, "default_rng", counted_rng)
                m.setattr(rabipi.montecarlo, "estimate_rows", counted_rows)
                run_mc(models, cfg)
            return seeds, batches

        return spied

    def test_one_generator_per_model_and_one_batch(self, spied_run_mc):
        cfg = McConfig(runs_per_model=7, base_seed=11)
        seeds, batches = spied_run_mc(DEMO_QUBITS, cfg)
        assert seeds == [_run_seed(11, m, 0) for m in DEMO_QUBITS]
        assert len(batches) == 1
        assert batches[0].shape == (3 * 7, len(cfg.grid))

    def test_equal_models_draw_different_runs(self, spied_run_mc):
        # the second of two equal models is drawn from the next seed, so the
        # 100 runs of two IDEAL models are 100 different datasets, as
        # ``rabipi report q.csv q.csv`` estimates them
        cfg = McConfig(runs_per_model=50, base_seed=7)
        seeds, (fractions,) = spied_run_mc([IDEAL, IDEAL], cfg)
        assert seeds == [_run_seed(7, IDEAL, 0), _run_seed(7, IDEAL, 1)]
        assert len(np.unique(fractions, axis=0)) == 100

    def test_equal_models_in_any_order(self):
        a, b = DEMO_QUBITS[:2]
        cfg = McConfig(runs_per_model=20, base_seed=5)
        first = run_mc([a, a, b], cfg)
        assert first.n_runs == 60
        assert run_mc([b, a, a], cfg) == first == run_mc([a, b, a], cfg)
        assert first != run_mc([a, b, b], cfg)

    def test_run_0_is_the_first_per_run_seed_dataset(self, spied_run_mc):
        # run 0 of each model is the dataset the stream of one seed per run
        # drew first, so only runs 1.. changed with one generator per model
        cfg = McConfig(runs_per_model=7, base_seed=11)
        _, (fractions,) = spied_run_mc(DEMO_QUBITS, cfg)
        for m, model in enumerate(DEMO_QUBITS):
            ds = sample_dataset(model, cfg.grid, cfg.shots,
                                seed=_run_seed(11, model, 0))
            assert np.array_equal(fractions[7 * m], ds.fractions())

    def test_batch_equals_one_batch_per_model(self):
        # run_mc estimates all models in one batch; rows must not interact
        cfg = McConfig(runs_per_model=100, base_seed=0, **LOWSHOT)
        times = cfg.grid.times()
        blocks = [sample_counts(m, cfg.grid, cfg.shots, _run_seed(0, m, 0), 100)
                  / cfg.shots for m in [FAILING, *DEMO_QUBITS[:2]]]
        whole = estimate_rows(times, np.concatenate(blocks))
        parts = [estimate_rows(times, b) for b in blocks]
        for f in dataclasses.fields(RowEstimates):
            if f.name == "errors":
                continue
            assert np.array_equal(
                getattr(whole, f.name),
                np.concatenate([getattr(p, f.name) for p in parts]),
                equal_nan=True)
        steps = [e and (e.step, str(e)) for e in whole.errors]
        assert steps == [e and (e.step, str(e)) for p in parts for e in p.errors]
        assert any(steps)

    def test_failures_by_step(self):
        s = run_mc([FAILING], McConfig(runs_per_model=300, base_seed=0, **LOWSHOT))
        assert sum(s.failures_by_step.values()) == s.failures
        # a half-period above 1/2 cut off by the data fails where the
        # half-period is picked, and a refined crossing past the data where
        # it is refined, so no run gets as far as the integral's limits
        assert set(s.failures_by_step) == {"find_crossing", "refine_crossing_linear"}
        # ~6% failure rate; the band is about 3 binomial sigma either way
        assert 0.02 <= s.failures / s.n_runs <= 0.10

    @pytest.mark.parametrize("cfg, message", [
        (McConfig(runs_per_model=3, grid=make_grid(0.0, 0.3, 0.1)),
         "all 3 runs failed: find_crossing 3"),
        # the falling crossing sits 0.04 before the end of the data
        (McConfig(runs_per_model=3, shots=256, grid=make_grid(0.0, 4.75, 0.05)),
         "2 of 3 runs failed: find_crossing 1, refine_crossing_linear 1; "
         "fewer than 2 successful runs, standard deviation undefined"),
    ], ids=["all_failed", "one_succeeded"])
    def test_too_few_successes_name_the_failing_steps(self, cfg, message):
        with pytest.raises(PipelineError) as info:
            run_mc([NoiseModel(0.9, 0.05, 0.0, 1.0)], cfg)
        assert info.value.step == "run_mc"
        assert str(info.value) == f"run_mc: {message}"

    @pytest.mark.parametrize("model", OFF_RATE, ids=["c1.6", "c1.45", "c2_phi2"])
    def test_off_protocol_rates_are_unbiased(self, model):
        s = run_mc([model], McConfig(runs_per_model=200, shots=8192, base_seed=0))
        assert s.failures == 0
        assert abs(s.mean_pi - math.pi) <= 0.05

    def test_spreads_pool_across_rates(self):
        # the crossing spacing pi/c differs by 0.29 between these models; in
        # units of each model's rate it does not, so pooling adds no spread
        models = [NoiseModel(0.9, 0.05, 0.0, 1.0), NoiseModel(0.9, 0.05, 0.0, 1.1)]
        cfg = McConfig(runs_per_model=100, base_seed=3)
        alone = [run_mc([m], cfg) for m in models]
        pooled = run_mc(models, cfg)
        assert pooled.std_dt <= 1.5 * max(a.std_dt for a in alone)
        assert pooled.std_I <= 1.5 * max(a.std_I for a in alone)

    def test_no_failures_gives_empty_breakdown(self):
        s = run_mc(DEMO_QUBITS, McConfig(runs_per_model=10))
        assert s.failures == 0
        assert s.failures_by_step == {}
        assert isinstance(hash(s), int)  # the breakdown keeps it hashable


class TestModelFromEstimate:
    def test_closed_loop_recovery(self):
        # tolerances checked over 20 seeds before freezing this fixture
        truth = NoiseModel(0.9, 0.05, 0.0, 1.0)
        ds = sample_dataset(truth, DEFAULT_GRID, 8192, seed=13)
        m = model_from_estimate(estimate_pi(ds))
        assert m.alpha == pytest.approx(truth.alpha, abs=0.02)
        assert m.beta == pytest.approx(truth.beta, abs=0.02)
        assert m.c == pytest.approx(truth.c, abs=0.01)

    def test_exact_ideal_recovery(self):
        m = model_from_estimate(estimate_pi(exact_dataset(IDEAL, DEFAULT_GRID)))
        assert m.alpha == pytest.approx(1.0, abs=2e-3)   # grid extremum bias
        assert m.beta == pytest.approx(0.0, abs=2e-3)
        assert m.c == pytest.approx(1.0, abs=2e-3)
        assert m.phi0 == pytest.approx(0.0, abs=3e-3)

    @pytest.mark.parametrize("phi0", [0.0, 2.0])
    @pytest.mark.parametrize("c", [1.45, 1.6, 2.0])
    def test_recovers_rate_and_phase(self, c, phi0):
        # the phase pi/2 - c*t1 holds because t1 is a rising crossing
        truth = NoiseModel(0.9, 0.05, phi0, c)
        for seed in range(20):
            ds = sample_dataset(truth, DEFAULT_GRID, 8192, seed=seed)
            m = model_from_estimate(estimate_pi(ds))
            assert m.c == pytest.approx(c, abs=0.05), seed
            assert abs(math.remainder(m.phi0 - phi0, 2 * math.pi)) <= 0.2, seed


def _demo_datasets(grid=DEFAULT_GRID, shots=8192):
    return [sample_dataset(m, grid, shots, seed=100 + i, label=f"q{i}")
            for i, m in enumerate(DEMO_QUBITS)]


def _step_dataset(label):
    """A dataset the jump screen rejects."""
    return inject_step(sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0,
                                      label=label), 4.0, 0.15)


class TestAggregate:
    """The mean over the accepted datasets and its 2-sigma bar."""

    def test_three_qubit_mean(self):
        datasets = _demo_datasets()
        rep = report([*datasets, _step_dataset("bad")], runs_per_model=10)
        assert rep.mean_pi == np.mean([estimate_pi(ds).pi_hat for ds in datasets])
        assert rep.error_bar == 2 * rep.mc.std_pi
        assert "single-run" in rep.sigma_source

    def test_single_result(self):
        ds = _demo_datasets()[0]
        rep = report([ds], runs_per_model=10)
        assert rep.mean_pi == estimate_pi(ds).pi_hat
        assert rep.error_bar == 2 * rep.mc.std_pi

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([])


class TestReport:
    def test_mc_is_run_mc_on_the_recovered_models(self):
        # off-default grid and shots: the Monte Carlo takes both from the data
        grid = make_grid(0.0, 6.3, 0.05)
        datasets = _demo_datasets(grid, 512)
        rep = report(datasets, runs_per_model=20, base_seed=5)
        expected = run_mc([model_from_estimate(estimate_pi(ds)) for ds in datasets],
                          McConfig(20, 512, grid, 5))
        assert dataclasses.asdict(rep.mc) == dataclasses.asdict(expected)
        assert rep.mc == expected

    def test_verdicts_keep_the_input_order(self):
        q0, q1, q2 = _demo_datasets()
        rep = report([q0, _step_dataset("bad"), q1, q2], runs_per_model=5)
        assert [(label, v.accepted) for label, v in rep.verdicts] == [
            ("q0", True), ("bad", False), ("q1", True), ("q2", True)]
        assert [label for label, _ in rep.estimates] == ["q0", "q1", "q2"]
        assert rep.estimates[1][1] == estimate_pi(q1)
        assert rep.mc.n_runs == 15

    def test_screened_dataset_skipped(self):
        ds = _demo_datasets()[0]
        rep = report([_step_dataset("bad"), ds], runs_per_model=5)
        assert [label for label, _ in rep.estimates] == ["q0"]
        with pytest.raises(PipelineError, match="all datasets rejected by screening"):
            report([_step_dataset("bad")], runs_per_model=5)

    def test_failed_estimate_names_the_dataset(self):
        q0, _, q2 = _demo_datasets()
        cut_off = sample_dataset(NoiseModel(0.9, 0.05, 2.5, 1.0), DEFAULT_GRID,
                                 8192, seed=1, label="q1")
        with pytest.raises(PipelineError, match=r"^report: q1: find_crossing: "):
            report([q0, cut_off, q2], runs_per_model=5)

    def test_failed_screen_names_the_dataset(self):
        q1 = _demo_datasets()[1]
        tiny = Dataset([0, .1, .2], 100, [10, 50, 90], label="tiny")
        with pytest.raises(PipelineError,
                           match=r"^report: tiny: fit_model: need >= 4 times"):
            report([q1, tiny], runs_per_model=5)

    def test_unlabeled_datasets_named_by_position(self):
        ok, other = (sample_dataset(m, DEFAULT_GRID, 8192, seed=100 + i)
                     for i, m in enumerate(DEMO_QUBITS[:2]))
        rep = report([ok, _step_dataset(""), other], runs_per_model=5)
        assert [(name, v.accepted) for name, v in rep.verdicts] == [
            ("dataset 1", True), ("dataset 2", False), ("dataset 3", True)]
        assert [name for name, _ in rep.estimates] == ["dataset 1", "dataset 3"]
        cut_off = sample_dataset(NoiseModel(0.9, 0.05, 2.5, 1.0), DEFAULT_GRID,
                                 8192, seed=1)
        with pytest.raises(PipelineError,
                           match=r"^report: dataset 2: find_crossing: "):
            report([ok, cut_off], runs_per_model=5)


def reference_report(datasets, runs_per_model, base_seed):
    """``report`` as a plain loop: one ``screen_dataset`` and, once every
    dataset has screened, one ``estimate_pi`` per accepted dataset, each
    failure raised as it comes."""
    named = [(ds.label or f"dataset {i}", ds) for i, ds in enumerate(datasets, 1)]

    def call(step, name, ds):
        try:
            return step(ds)
        except PipelineError as exc:
            raise PipelineError("report", f"{name}: {exc}") from exc

    verdicts = tuple((name, call(screen_dataset, name, ds)) for name, ds in named)
    kept = [(name, ds) for (name, ds), (_, v) in zip(named, verdicts) if v]
    if not kept:
        raise PipelineError("report", "all datasets rejected by screening")
    estimates = tuple((name, call(estimate_pi, name, ds)) for name, ds in kept)
    experiments = [_experiment(name, ds) for name, ds in kept]
    if len(set(experiments)) > 1:
        raise PipelineError("report", "datasets differ in time grid or shots: " +
                            ", ".join(f"{name} {n} shots on t = {g.start:g}:"
                                      f"{g.step:.6g}:{g.stop:g}"
                                      for (name, _), (g, n) in zip(kept, experiments)))
    grid, shots = experiments[0]
    mc = run_mc([model_from_estimate(r) for _, r in estimates],
                McConfig(runs_per_model, shots, grid, base_seed))
    mean_pi = float(np.mean([r.pi_hat for _, r in estimates]))
    return Report(verdicts, estimates, mc, mean_pi, 2 * mc.std_pi)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PipelineError as exc:
        return f"{exc.step}: {exc}"


#: np.linspace times differ from TimeGrid.times() in their last bits, so
#: files on them form a batch of their own
LINSPACE = np.linspace(0.0, 6.3, 64)


def _linspace_dataset(model, seed, label=""):
    rng = np.random.default_rng(seed)
    return Dataset(LINSPACE, 8192, rng.binomial(8192, noisy_prob(model, LINSPACE)),
                   label)


class TestReportBatches:
    """``report`` screens, fits and estimates the datasets of a batch
    together; it must give what one call per dataset gives, and name the
    same dataset when one fails."""

    def test_two_exact_time_batches(self):
        assert not np.array_equal(LINSPACE, DEFAULT_GRID.times())
        q0, q1, q2 = _demo_datasets()
        datasets = [q0, _linspace_dataset(DEMO_QUBITS[1], 1, "lin1"),
                    _step_dataset("stepped"), q1,
                    _linspace_dataset(DEMO_QUBITS[2], 2),
                    dataclasses.replace(q2, label="")]
        rep = report(datasets, runs_per_model=20, base_seed=3)
        assert rep == reference_report(datasets, 20, 3)
        assert [name for name, v in rep.verdicts if not v] == ["stepped"]
        assert [name for name, _ in rep.estimates] == [
            "q0", "lin1", "q1", "dataset 5", "dataset 6"]

    @pytest.mark.parametrize("case", [
        "constant", "find_crossing", "find_crossing_across_batches",
        "too_few_times", "too_few_times_across_batches", "mixed_experiments"])
    def test_first_failure_named_as_one_call_per_dataset_names_it(self, case):
        q0, q1, _ = _demo_datasets()
        cut = NoiseModel(0.9, 0.05, 2.5, 1.0)  # its half-period is cut off
        flat = Dataset(DEFAULT_GRID.times(), 8192, np.full(64, 4000), "flat")
        tiny_a = Dataset([0.0, 0.1, 0.2], 100, [10, 50, 90], "tiny_a")
        datasets = {
            "constant": [q0, flat, _linspace_dataset(DEMO_QUBITS[1], 1)],
            "find_crossing": [q0, sample_dataset(cut, DEFAULT_GRID, 8192, seed=1,
                                                 label="cut"), q1],
            # the linspace batch is screened second, but its file is first
            "find_crossing_across_batches": [
                q0, _linspace_dataset(cut, 1, "lin_cut"),
                sample_dataset(cut, DEFAULT_GRID, 8192, seed=1, label="grid_cut")],
            "too_few_times": [q0, tiny_a],
            "too_few_times_across_batches": [
                Dataset([0.0, 0.2, 0.4], 100, [50, 50, 50], "tiny_flat"), tiny_a,
                Dataset([0.0, 0.2, 0.4], 100, [10, 50, 90], "tiny_b")],
            "mixed_experiments": [q0, q1, sample_dataset(DEMO_QUBITS[2], DEFAULT_GRID,
                                                         4096, seed=2, label="q2")],
        }[case]
        got = _outcome(report, datasets, 5, 0)
        assert isinstance(got, str)  # every case fails
        assert got == _outcome(reference_report, datasets, 5, 0)
        first = {"constant": "flat", "find_crossing": "cut",
                 "find_crossing_across_batches": "lin_cut",
                 "too_few_times": "tiny_a", "too_few_times_across_batches": "tiny_a",
                 "mixed_experiments": "datasets differ"}[case]
        assert got.startswith(f"report: report: {first}")

    def test_one_screen_search_and_one_estimate_batch_per_batch(self, monkeypatch):
        # three clean files on one grid: one rate scan, whose brackets
        # accept all three, so no rate search and no kernel call
        kernel, rows = rabipi.estimate._fit_at_rates, rabipi.montecarlo.estimate_rows
        scan = rabipi.estimate._scan
        shapes, scans, batches = [], [], []
        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates",
                            lambda t, f, c: shapes.append(c.shape) or kernel(t, f, c))
        monkeypatch.setattr(rabipi.estimate, "_scan",
                            lambda t, f, step: scans.append(f.shape) or scan(t, f, step))
        monkeypatch.setattr(rabipi.montecarlo, "estimate_rows",
                            lambda t, f: batches.append(f.shape) or rows(t, f))
        report(_demo_datasets(), runs_per_model=5)
        assert scans == [(3, 64)]
        assert shapes == []
        assert batches == [(3, 64), (15, 64)]

    def test_one_time_grid_per_batch(self, monkeypatch):
        q0, q1, q2 = _demo_datasets()
        datasets = [q0, _linspace_dataset(DEMO_QUBITS[1], 1, "lin1"), q1,
                    _linspace_dataset(DEMO_QUBITS[2], 2, "lin2"), q2]
        built = []
        grid = rabipi.montecarlo.TimeGrid
        monkeypatch.setattr(rabipi.montecarlo, "TimeGrid",
                            lambda *args: built.append(args) or grid(*args))
        report(datasets, runs_per_model=5)
        assert len(built) == 2

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)])
    def test_experiments_checked_in_input_order(self, order):
        # a file of the first batch whose shots vary by row, and a file
        # whose times are not uniform: the first in input order is named
        q0, q1, _ = _demo_datasets()
        shots, ones = q1.shots.copy(), q1.ones.copy()
        shots[5], ones[5] = 4096, ones[5] // 2
        varied = Dataset(q1.t, shots, ones, "varied")
        t = q0.t.copy()
        t[1:] += 0.01 * np.arange(63) / 63
        uneven = Dataset(t, 8192, q0.ones, "uneven")
        datasets = [[q0, varied, uneven][k] for k in order]
        got = _outcome(report, datasets, 5, 0)
        assert got == _outcome(reference_report, datasets, 5, 0)
        first = {1: "varied: shots vary by row",
                 2: "uneven: times are not a uniform grid"}
        assert got.startswith(f"report: report: {first[order[1]]}")
