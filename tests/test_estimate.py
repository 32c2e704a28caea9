import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rabipi.estimate
from rabipi.estimate import (EstimateConfig, NormalizedCurve, PipelineError,
                             estimate_pi, estimate_rows, find_crossing,
                             fit_model, interpolate, normalize,
                             refine_alpha_beta, refine_crossing_linear,
                             rough_alpha_beta, screen_dataset,
                             trapezoid_integral)
from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.simulate import (DEFAULT_GRID, Dataset, ShotRecord, exact_dataset,
                             inject_step, make_grid, sample_dataset)

GRID_TIMES = DEFAULT_GRID.times()


def ideal_curve() -> NormalizedCurve:
    """Exact ideal-curve samples on the default grid."""
    return NormalizedCurve(GRID_TIMES, (1 - np.cos(GRID_TIMES)) / 2)


def constant_dataset(frac=0.7, shots=1000):
    recs = tuple(ShotRecord(t=float(t), shots=shots, ones=int(frac * shots))
                 for t in GRID_TIMES)
    return Dataset(records=recs)


class TestRoughAlphaBeta:
    def test_from_span(self):
        recs = (ShotRecord(0.0, 1000, 100), ShotRecord(1.0, 1000, 900),
                ShotRecord(2.0, 1000, 500))
        a, b = rough_alpha_beta(Dataset(records=recs))
        assert (a, b) == pytest.approx((0.8, 0.1))

    def test_exact_ideal_on_grid(self):
        # oracle: evaluate (1 - cos t)/2 on the grid directly
        ds = exact_dataset(IDEAL, DEFAULT_GRID)
        probs = (1 - np.cos(GRID_TIMES)) / 2
        a, b = rough_alpha_beta(ds)
        assert b == pytest.approx(0.0, abs=1e-12)
        assert a == pytest.approx(float(probs.max() - probs.min()), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(PipelineError):
            rough_alpha_beta(constant_dataset())


class TestNormalize:
    def test_fixed_points(self):
        recs = (ShotRecord(0.0, 1000, 100), ShotRecord(1.0, 1000, 900))
        curve = normalize(Dataset(records=recs), 0.8, 0.1)
        assert curve.f1[0] == pytest.approx(0.0)
        assert curve.f1[1] == pytest.approx(1.0)

    def test_midpoint_affine_invariant(self):
        recs = (ShotRecord(0.0, 1000, 500), ShotRecord(1.0, 1000, 500),
                ShotRecord(2.0, 1000, 100))
        curve = normalize(Dataset(records=recs), 0.8, 0.1)
        assert curve.f1[0] == pytest.approx(0.5)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(PipelineError):
            normalize(constant_dataset(), 0.0, 0.1)

    def test_renormalization_fixed_point(self):
        # normalize then min/max of the result gives exactly (1, 0)
        ds = sample_dataset(NoiseModel(0.9, 0.05, 0, 1), DEFAULT_GRID, 8192, seed=4)
        a, b = rough_alpha_beta(ds)
        curve = normalize(ds, a, b)
        assert float(curve.f1.min()) == 0.0
        assert float(curve.f1.max() - curve.f1.min()) == 1.0


class TestInterpolate:
    def test_exact_at_grid_points(self):
        curve = ideal_curve()
        for i in (0, 10, 63):
            assert interpolate(curve, curve.t[i]) == curve.f1[i]

    def test_midpoint(self):
        curve = NormalizedCurve(np.array([1.0, 1.1]), np.array([0.4, 0.6]))
        assert interpolate(curve, 1.05) == pytest.approx(0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(PipelineError):
            interpolate(ideal_curve(), -0.5)


class TestFindCrossing:
    def test_ideal_first_crossing(self):
        t = find_crossing(ideal_curve(), 1.5)
        assert abs(t - math.pi / 2) < 2e-3  # interpolation bias of the 0.1 grid

    def test_ideal_second_crossing(self):
        t = find_crossing(ideal_curve(), 4.5)
        assert abs(t - 3 * math.pi / 2) < 2e-3

    def test_residual_within_tolerance(self):
        curve = ideal_curve()
        for start in (1.5, 4.5, 2.0, 4.0):
            t = find_crossing(curve, start)
            assert abs(interpolate(curve, t) - 0.5) <= 1e-9

    def test_no_crossing_rejected(self):
        curve = NormalizedCurve(GRID_TIMES, np.full(len(GRID_TIMES), 0.7))
        with pytest.raises(PipelineError):
            find_crossing(curve, 1.5)

    def test_exact_grid_hit_returned(self):
        curve = NormalizedCurve(np.array([0.0, 1.0, 2.0]),
                                np.array([0.0, 0.5, 1.0]))
        assert find_crossing(curve, 1.0) == 1.0

    def test_knot_away_from_start_returned_exactly(self):
        # the level is hit exactly at the knot 4.7, two grid steps from start
        curve = NormalizedCurve(GRID_TIMES, 0.5 + 0.25 * (GRID_TIMES - GRID_TIMES[47]))
        assert GRID_TIMES[47] == 4.7
        assert find_crossing(curve, 4.5) == 4.7

    @pytest.mark.parametrize("g,expected", [
        ([0.5, 0.5, -0.5, 0.5, 0.5], 2.5),   # crossings at 1.5 and 2.5
        ([0.5, -0.9, 0.1, -1 / 15, -0.5], 2.6),  # at 1.9 and 2.6
    ], ids=["equal_distance", "same_grid_step"])
    def test_right_side_wins_a_tie(self, g, expected):
        # both crossings lie within one grid step of start: the right one
        # wins, as in a search that widens right first
        curve = NormalizedCurve(np.arange(5.0), 0.5 + np.array(g))
        assert find_crossing(curve, 2.0) == pytest.approx(expected, abs=1e-9)

    def test_crossing_stays_inside_its_segment(self):
        # the level is 6e-17 above the right end, so the segment fraction
        # rounds to 1 and t0 + (t1 - t0) rounds past t1
        t = np.array([1.815060912382438, 11.606647719737014])
        curve = NormalizedCurve(t, np.array([2.0, 0.49999999999999994]))
        assert t[0] + (t[1] - t[0]) > t[1]
        assert find_crossing(curve, 1.9) == t[1]

    @settings(deadline=None)
    @given(st.data())
    def test_exact_on_random_piecewise_linear(self, data):
        n = data.draw(st.integers(2, 20))
        t = np.cumsum(np.array(data.draw(
            st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))))
        f1 = np.array(data.draw(
            st.lists(st.floats(-1, 2), min_size=n, max_size=n)))
        level = data.draw(st.floats(0.05, 0.95))
        start = data.draw(st.floats(float(t[0]) - 1, float(t[-1]) + 1))
        curve = NormalizedCurve(t, f1)
        g = f1 - level
        if np.all(g > 0) or np.all(g < 0):
            with pytest.raises(PipelineError):
                find_crossing(curve, start, level)
            return
        x = find_crossing(curve, start, level)
        assert t[0] <= x <= t[-1]
        assert abs(np.interp(x, t, f1) - level) <= 1e-12


class TestRefineAlphaBeta:
    def test_ideal_windows(self):
        # oracle values computed from (1 - cos t)/2 at the window grid points
        curve = ideal_curve()
        t1 = find_crossing(curve, 1.5)
        t2 = find_crossing(curve, 4.5)
        a, b, t_minval, t_maxval = refine_alpha_beta(curve, t1, t2, delta=0.1)
        assert t_maxval == pytest.approx((t1 + t2) / 2)
        # the half-period-below point is just under 0, so the minimum window
        # sits a half-period above the second crossing instead
        assert t_minval == pytest.approx((3 * t2 - t1) / 2)
        # max window holds grid points {3.1, 3.2}; min window {6.2, 6.3}
        f1 = curve.f1
        expected_top = (f1[31] + f1[32]) / 2
        expected_bottom = (f1[62] + f1[63]) / 2
        assert b == pytest.approx(float(expected_bottom), abs=1e-12)
        assert a + b == pytest.approx(float(expected_top), abs=1e-12)
        assert a + b == pytest.approx(0.9993574815170081, abs=1e-9)

    def test_plateau_means(self):
        t = np.arange(0.0, 6.4, 0.1)
        f1 = np.where(np.abs(t - 3.15) < 0.3, 0.97, np.nan)
        f1 = np.where(np.abs(t - 0.0) < 0.3, 0.02, f1)
        f1 = np.nan_to_num(f1, nan=0.5)
        curve = NormalizedCurve(t, f1)
        a, b, _, _ = refine_alpha_beta(curve, 1.575, 4.725, delta=0.1)
        assert (a, b) == pytest.approx((0.95, 0.02))

    def test_empty_window_rejected(self):
        curve = NormalizedCurve(np.array([0.0, 2.0, 6.0]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(PipelineError):
            refine_alpha_beta(curve, 1.5, 4.5, delta=0.1)


class TestRefineCrossingLinear:
    def test_line_recovers_itself(self):
        t = np.arange(0.0, 4.05, 0.1)
        curve = NormalizedCurve(t, 0.3 + 0.1 * t)
        assert refine_crossing_linear(curve, 2.0, 0.5) == pytest.approx(2.0)

    def test_ideal_crossing_bias(self):
        curve = ideal_curve()
        t = refine_crossing_linear(curve, math.pi / 2, 0.5)
        assert abs(t - math.pi / 2) < 3e-3

    def test_constant_rejected(self):
        curve = NormalizedCurve(GRID_TIMES, np.full(len(GRID_TIMES), 0.5))
        with pytest.raises(PipelineError):
            refine_crossing_linear(curve, 1.5, 0.5)

    def test_too_few_points_rejected(self):
        curve = NormalizedCurve(np.array([0.0, 3.0]), np.array([0.0, 1.0]))
        with pytest.raises(PipelineError):
            refine_crossing_linear(curve, 0.0, 0.5)


class TestTrapezoidIntegral:
    def test_paper_benchmark(self):
        value = trapezoid_integral(ideal_curve(), math.pi / 2, 3 * math.pi / 2)
        assert value == pytest.approx(0.99917, abs=1e-4)

    def test_rectangle(self):
        curve = NormalizedCurve(np.array([0.0, 1.0, 2.0]), np.ones(3))
        assert trapezoid_integral(curve, 0.0, 2.0) == pytest.approx(1.0)

    def test_odd_about_midpoint(self):
        t = np.arange(0.0, 1.05, 0.1)
        curve = NormalizedCurve(t, t.copy())
        assert trapezoid_integral(curve, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_bad_limits_rejected(self):
        curve = ideal_curve()
        with pytest.raises(PipelineError):
            trapezoid_integral(curve, 3.0, 2.0)
        with pytest.raises(PipelineError):
            trapezoid_integral(curve, -1.0, 2.0)

    @settings(deadline=None)
    @given(st.data())
    def test_exact_for_piecewise_linear(self, data):
        # oracle: antiderivative of each linear segment, evaluated at the ends
        n = data.draw(st.integers(4, 20))
        t = np.cumsum(np.array(data.draw(
            st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))))
        f1 = np.array(data.draw(
            st.lists(st.floats(-1, 2), min_size=n, max_size=n)))
        curve = NormalizedCurve(t, f1)
        a = data.draw(st.floats(float(t[0]), float(t[-2])))
        b = data.draw(st.floats(a + 1e-6, float(t[-1])))
        pts = np.concatenate(([a], t[(t > a) & (t < b)], [b]))
        exact = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            ylo = np.interp(lo, t, f1) - 0.5
            yhi = np.interp(hi, t, f1) - 0.5
            slope = (yhi - ylo) / (hi - lo)
            # integral of ylo + slope*(x - lo) over [lo, hi]
            exact += ylo * (hi - lo) + slope * (hi - lo) ** 2 / 2
        assert trapezoid_integral(curve, a, b) == pytest.approx(exact, abs=1e-12)


# frozen from a dense-grid oracle run of the noiseless pipeline
NOISELESS_PI_HAT = 3.141075423157119
# single-run sigma of pi_hat from the 150-run ideal Monte Carlo
SIGMA_IDEAL = 0.0056


class TestEstimatePi:
    def test_noiseless_value(self):
        r = estimate_pi(exact_dataset(IDEAL, DEFAULT_GRID))
        assert 3.13 <= r.pi_hat <= 3.16
        assert r.pi_hat == pytest.approx(NOISELESS_PI_HAT, abs=1e-9)

    def test_seeded_run_within_three_sigma(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=12345)
        r = estimate_pi(ds)
        assert abs(r.pi_hat - math.pi) < 3 * SIGMA_IDEAL

    def test_pipeline_identity(self):
        for seed in (0, 1, 2):
            ds = sample_dataset(NoiseModel(0.9, 0.05, 0, 1), DEFAULT_GRID,
                                8192, seed=seed)
            r = estimate_pi(ds)
            assert r.pi_hat * r.integral_I == pytest.approx(
                r.t2_hat - r.t1_hat, abs=1e-12)
            assert r.c_hat == pytest.approx(1 / r.integral_I)
            assert r.t1_hat < r.t2_hat
            assert r.integral_I > 0

    @pytest.mark.parametrize("alpha,beta", [
        (0.8, 0.0), (0.8, 0.1), (0.9, 0.05), (1.0, 0.0), (0.85, 0.1),
    ])
    def test_affine_robustness(self, alpha, beta):
        ref = estimate_pi(exact_dataset(IDEAL, DEFAULT_GRID)).pi_hat
        ds = exact_dataset(NoiseModel(alpha, beta, 0, 1), DEFAULT_GRID)
        assert abs(estimate_pi(ds).pi_hat - ref) <= 0.01

    @pytest.mark.parametrize("phi0", [-0.1, -0.05, 0.05, 0.1])
    def test_phase_robustness(self, phi0):
        ref = estimate_pi(exact_dataset(IDEAL, DEFAULT_GRID))
        r = estimate_pi(exact_dataset(NoiseModel(1, 0, phi0, 1), DEFAULT_GRID))
        dt_ref = ref.t2_hat - ref.t1_hat
        dt = r.t2_hat - r.t1_hat
        assert abs(dt - dt_ref) <= 0.005

    def test_window_edges_do_not_depend_on_rounding(self):
        # the rough crossings put t_maxval on the knot 2.45, with the knots
        # 2.35 and 2.55 exactly delta away; float noise in the knot
        # distances must not decide which of them the windows take
        ds = sample_dataset(NoiseModel(0.6, 0.2, 0.5, 1.1),
                            make_grid(0.0, 6.3, 0.05), 256, seed=126)
        cfg = EstimateConfig()
        alpha, beta = rough_alpha_beta(ds)
        curve = normalize(ds, alpha, beta)
        t1 = find_crossing(curve, cfg.root_start_1)
        t2 = find_crossing(curve, cfg.root_start_2)

        def pi_from(t1, t2):
            a5, b5, _, _ = refine_alpha_beta(curve, t1, t2, cfg.delta)
            refined = normalize(ds, alpha * a5, beta + alpha * b5)
            u1 = refine_crossing_linear(refined, t1, cfg.refine_window)
            u2 = refine_crossing_linear(refined, t2, cfg.refine_window)
            return (u2 - u1) / trapezoid_integral(refined, u1, u2)

        assert pi_from(t1, t2) == estimate_pi(ds, cfg).pi_hat
        for shift in (-5e-11, 5e-11):
            assert pi_from(t1 + shift, t2 + shift) == pytest.approx(
                pi_from(t1, t2), abs=1e-12)

    def test_failure_identifies_step(self):
        with pytest.raises(PipelineError) as exc:
            estimate_pi(constant_dataset())
        assert exc.value.step == "rough_alpha_beta"


class TestEstimateRows:
    def test_rows_match_single_dataset_calls(self):
        # low-shot, off-phase data, where some rows fail; the last row is flat
        grid = make_grid(0.0, 6.3, 0.05)
        datasets = [sample_dataset(NoiseModel(0.9, 0.05, 1.5, 1.0), grid, 256,
                                   seed=seed) for seed in range(60)]
        fractions = np.array([ds.fractions() for ds in datasets]
                             + [np.full(len(grid), 0.7)])
        rows = estimate_rows(grid.times(), fractions)
        steps = set()
        for r, ds in enumerate(datasets):
            try:
                single = estimate_pi(ds)
            except PipelineError as exc:
                assert rows.errors[r].step == exc.step
                assert str(rows.errors[r]) == str(exc)
                steps.add(exc.step)
                continue
            assert rows.errors[r] is None
            assert (rows.alpha_hat[r], rows.beta_hat[r], rows.t1_hat[r],
                    rows.t2_hat[r], rows.integral_I[r], rows.pi_hat[r],
                    rows.t_minval[r], rows.t_maxval[r]) == (
                single.alpha_hat, single.beta_hat, single.t1_hat,
                single.t2_hat, single.integral_I, single.pi_hat,
                single.t_minval, single.t_maxval)
        assert rows.errors[-1].step == "rough_alpha_beta"
        assert steps  # the batch covered failing rows
        assert list(rows.ok) == [e is None for e in rows.errors]


class TestFitModel:
    def test_recovers_ideal_exactly(self):
        m = fit_model(exact_dataset(IDEAL, DEFAULT_GRID))
        assert m.alpha == pytest.approx(1.0, abs=1e-3)
        assert m.beta == pytest.approx(0.0, abs=1e-3)
        assert m.phi0 == pytest.approx(0.0, abs=1e-3)
        assert m.c == pytest.approx(1.0, abs=1e-3)

    def test_recovers_noisy_parameters(self):
        # tolerance checked over 20 seeds before freezing this fixture
        truth = NoiseModel(0.8, 0.1, 0.2, 1.05)
        ds = sample_dataset(truth, DEFAULT_GRID, 8192, seed=17)
        m = fit_model(ds)
        assert m.alpha == pytest.approx(truth.alpha, abs=0.02)
        assert m.beta == pytest.approx(truth.beta, abs=0.02)
        assert m.phi0 == pytest.approx(truth.phi0, abs=0.02)
        assert m.c == pytest.approx(truth.c, abs=0.02)

    def test_residual_never_worse_than_start(self):
        ds = sample_dataset(NoiseModel(0.9, 0.05, 0.1, 0.98), DEFAULT_GRID,
                            8192, seed=2)
        m = fit_model(ds)
        t, f = ds.times(), ds.fractions()

        def rss(model):
            pred = model.alpha * (1 - np.cos(model.c * t + model.phi0)) / 2 \
                + model.beta
            return float(np.sum((f - pred) ** 2))

        a0, b0 = rough_alpha_beta(ds)
        start = NoiseModel(a0, b0, 0.0, 2 * math.pi / 6.28)
        assert rss(m) <= rss(start) + 1e-12

    def test_constant_rejected(self):
        with pytest.raises(PipelineError):
            fit_model(constant_dataset())

    def test_recovers_fast_rate(self):
        # a local search started at one period over the span stops near
        # c = 0.42 here
        truth = NoiseModel(0.9, 0.05, 0.0, 2.0)
        m = fit_model(sample_dataset(truth, DEFAULT_GRID, 8192, seed=100))
        assert m.alpha == pytest.approx(truth.alpha, abs=0.02)
        assert m.beta == pytest.approx(truth.beta, abs=0.02)
        assert m.phi0 == pytest.approx(truth.phi0, abs=0.02)
        assert m.c == pytest.approx(truth.c, abs=0.02)

    def test_constraint_bound_residual(self):
        # the best curve here has beta = 0; clamping the unconstrained
        # optimum instead of searching the valid curves multiplies the RSS
        # many times over.  Reference: the RSS of a soft-penalty
        # Nelder-Mead fit of the same data.
        ds = sample_dataset(NoiseModel(0.8, 0.1, 2.0, 0.3), DEFAULT_GRID, 256,
                            seed=0)
        m = fit_model(ds)
        pred = m.alpha * (1 - np.cos(m.c * ds.times() + m.phi0)) / 2 + m.beta
        assert float(np.sum((ds.fractions() - pred) ** 2)) \
            <= 1.05 * 0.031033610539576272

    @pytest.mark.parametrize("gap", [1e-3, 1e-9])
    def test_scan_size_set_by_point_count(self, monkeypatch, gap):
        # two samples ``gap`` apart, as a CSV may hold: a scan up to
        # pi / min dt would evaluate 2 * span / gap rates
        truth = NoiseModel(0.8, 0.1, 0.2, 1.05)
        r = sample_dataset(truth, DEFAULT_GRID, 8192, seed=17).records
        extra = ShotRecord(r[59].t + gap, r[59].shots, r[59].ones)
        ds = Dataset(records=r[:60] + (extra,) + r[60:])
        batches = []
        fit_at_rates = rabipi.estimate._fit_at_rates

        def counted(t, f, c):
            batches.append(len(c))
            return fit_at_rates(t, f, c)

        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates", counted)
        m = fit_model(ds)
        assert max(batches) < 2 * len(ds.records)
        assert m.alpha == pytest.approx(truth.alpha, abs=0.02)
        assert m.beta == pytest.approx(truth.beta, abs=0.02)
        assert m.phi0 == pytest.approx(truth.phi0, abs=0.02)
        assert m.c == pytest.approx(truth.c, abs=0.02)

    def test_scan_in_batches_matches_one_batch(self, monkeypatch):
        # batches of three rates; the best one, c = 2, is in the third
        ds = sample_dataset(NoiseModel(0.9, 0.05, 0.0, 2.0), DEFAULT_GRID,
                            8192, seed=100)
        whole = fit_model(ds)
        monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", 3 * len(ds.records))
        assert fit_model(ds) == whole


class TestScreenDataset:
    def test_clean_accepted(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0)
        assert screen_dataset(ds).accepted

    def test_clean_fast_rate_accepted(self):
        ds = sample_dataset(NoiseModel(0.9, 0.05, 0.0, 2.0), DEFAULT_GRID, 8192,
                            seed=100)
        assert screen_dataset(ds).accepted

    def test_constant_accepted(self):
        assert screen_dataset(constant_dataset()).accepted

    def test_large_step_rejected_near_injection(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0)
        v = screen_dataset(inject_step(ds, 4.0, 0.15))
        assert not v.accepted
        assert abs(v.location - 4.0) <= 0.2
        assert v.reason

    def test_small_step_accepted(self):
        # 0.005 is below the c*dt/2 + 5 sigma threshold (~0.078 at 8192 shots)
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0)
        assert screen_dataset(inject_step(ds, 4.0, 0.005)).accepted
