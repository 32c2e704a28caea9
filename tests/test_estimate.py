import dataclasses
import importlib.util
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rabipi.estimate
from rabipi.estimate import (DELTA, REFINE_WINDOW, EstimateResult,
                             NormalizedCurve, PipelineError, estimate_pi,
                             estimate_rows, find_crossing, fit_model,
                             interpolate, normalize, refine_alpha_beta,
                             refine_crossing_linear, rough_alpha_beta,
                             ScreenVerdict, screen_dataset, screen_rows,
                             trapezoid_integral)
from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.simulate import (DEFAULT_GRID, Dataset, exact_dataset,
                             inject_step, make_grid, sample_counts,
                             sample_dataset)

GRID_TIMES = DEFAULT_GRID.times()
#: The paper's three demo qubits.
DEMO_QUBITS = [NoiseModel(0.90, 0.05, 0.0, 1.0), NoiseModel(0.85, 0.08, 0.0, 1.0),
               NoiseModel(0.95, 0.02, 0.0, 1.0)]


def ideal_curve() -> NormalizedCurve:
    """Exact ideal-curve samples on the default grid."""
    return NormalizedCurve(GRID_TIMES, (1 - np.cos(GRID_TIMES)) / 2)


def constant_dataset(frac=0.7, shots=1000):
    return Dataset(GRID_TIMES, shots, np.full(len(GRID_TIMES), int(frac * shots)))


class TestNormalizedCurve:
    @pytest.mark.parametrize("t, f1, message", [
        ([0.0, 1.0], [0.5], "matching 1-d arrays"),
        ([[0.0, 1.0]], [[0.5, 0.5]], "matching 1-d arrays"),
        ([0.0], [0.5], "matching 1-d arrays"),
        ([0.0, 1.0, 1.0], [0.1, 0.5, 0.9], "strictly increasing"),
        ([0.0, 1.0], [0.5, np.inf], "must be finite"),
        ([0.0, np.nan], [0.5, 0.5], "must be finite"),
        ([0.0, np.inf], [0.5, 0.5], "must be finite")])
    def test_invalid_rejected(self, t, f1, message):
        with pytest.raises(ValueError, match=message):
            NormalizedCurve(np.array(t), np.array(f1))


class TestRoughAlphaBeta:
    def test_from_span(self):
        a, b = rough_alpha_beta(Dataset([0.0, 1.0, 2.0], 1000, [100, 900, 500]))
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
        curve = normalize(Dataset([0.0, 1.0], 1000, [100, 900]), 0.8, 0.1)
        assert curve.f1[0] == pytest.approx(0.0)
        assert curve.f1[1] == pytest.approx(1.0)

    def test_midpoint_affine_invariant(self):
        curve = normalize(Dataset([0.0, 1.0, 2.0], 1000, [500, 500, 100]), 0.8, 0.1)
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

    @pytest.mark.parametrize("query", [math.nan, math.inf, [1.0, math.nan]])
    def test_non_finite_query_rejected(self, query):
        with pytest.raises(ValueError, match="queries must be finite"):
            interpolate(ideal_curve(), query)


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
        ([0.5, -0.9, 0.1, -1 / 15, -0.5], 1.9),  # at 1.9 and 2.6
    ], ids=["equal_distance", "same_grid_step"])
    def test_right_side_wins_a_tie(self, g, expected):
        # both crossings lie within one grid step of start: distance is
        # exact, so the nearer wins, and of two equally near the right one
        curve = NormalizedCurve(np.arange(5.0), 0.5 + np.array(g))
        assert find_crossing(curve, 2.0) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("f1,start,expected", [
        # knot 2 touches the level from above: inside the run, no crossing
        ([0, 1, 0.5, 1, 1, 0], 2.0, 0.5),
        # knot 2 touches it from below: a run of one knot, both ends at 2
        ([1, 0, 0.5, 0, 1], 2.2, 2.0),
        # the first or last knot on the level, the curve above: a data end
        ([0.5, 1, 1, 0, 0], 0.0, 2.5),
        ([0, 0, 1, 1, 0.5], 4.0, 1.5),
        # the first knot on the level, the curve below: the run falls there
        ([0.5, 0, 0, 1, 1], 0.4, 0.0),
    ], ids=["touch_from_above", "touch_from_below", "first_knot_data_end",
            "last_knot_data_end", "first_knot_falling"])
    def test_knot_on_the_level_counts_as_above(self, f1, start, expected):
        curve = NormalizedCurve(np.arange(float(len(f1))), f1)
        assert find_crossing(curve, start) == expected

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, start):
        with pytest.raises(ValueError, match="start must be finite"):
            find_crossing(ideal_curve(), start)

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
        # the curve crosses 1/2 where the drawn one crosses the drawn level
        f1 = f1 + (0.5 - level)
        curve = NormalizedCurve(t, f1)
        g = f1 - 0.5
        if np.all(g >= 0) or np.all(g < 0):
            with pytest.raises(PipelineError):
                find_crossing(curve, start)
            return
        x = find_crossing(curve, start)
        assert t[0] <= x <= t[-1]
        assert abs(np.interp(x, t, f1) - 0.5) <= 1e-12
        # the interior run ends: on each segment where the flag g >= 0 flips,
        # at its knot on the level or where the segment meets the level
        ends = [t[i] if g[i] == 0 else t[i + 1] if g[i + 1] == 0
                else t[i] + (t[i + 1] - t[i]) * g[i] / (g[i] - g[i + 1])
                for i in range(n - 1) if (g[i] >= 0) != (g[i + 1] >= 0)]
        assert min(abs(e - x) for e in ends) <= 1e-9
        assert abs(x - start) <= min(abs(e - start) for e in ends) + 1e-9


def half_period(t, f1):
    """The pipeline's rough (t1, t2) for one normalized curve."""
    t1, t2 = rabipi.estimate._on_one_row(rabipi.estimate._find_half_period,
                                         np.asarray(t, float),
                                         np.asarray(f1, float)[None], 0.5)
    return float(t1[0]), float(t2[0])


class TestHalfPeriod:
    @pytest.mark.parametrize("shots", [256, 8192])
    @pytest.mark.parametrize("c", [0.75, 1.0, 1.6, 2.2])
    def test_find_crossing_returns_t1_and_t2(self, c, shots):
        # started at step 4's own rough crossings, find_crossing returns them
        phases = np.linspace(-math.pi, math.pi, 13)[1:]
        f = np.concatenate([
            sample_counts(NoiseModel(0.9, 0.05, phi0, c), DEFAULT_GRID, shots,
                          seed, 3) / shots
            for seed, phi0 in enumerate(phases)])
        f1 = (f - f.min(axis=1, keepdims=True)) / np.ptp(f, axis=1, keepdims=True)
        (t1, t2), _, ok = run_step(rabipi.estimate._find_half_period,
                                   GRID_TIMES, f1, 0.5)
        assert ok.any()
        for r in np.flatnonzero(ok):
            curve = NormalizedCurve(GRID_TIMES, f1[r])
            assert find_crossing(curve, t1[r]) == t1[r]
            assert find_crossing(curve, t2[r]) == t2[r]

    @pytest.mark.parametrize("f1,expected", [
        # a short run at t = 0.83..1.5 from noise near the rising crossing
        ([0, 0.6, 0.4, 0.7, 0.9, 1, 0.8, 0.3, 0.1, 0], (2 + 1 / 3, 6.6)),
        # knots on the level count as above: the run is t = 1..7 exactly
        ([0, 0.5, 0.7, 0.9, 1, 0.9, 0.8, 0.5, 0.1, 0], (1.0, 7.0)),
    ], ids=["noise_run_skipped", "knots_on_level"])
    def test_longest_run_above_half(self, f1, expected):
        t1, t2 = half_period(np.arange(10.0), f1)
        assert (t1, t2) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("f1", [
        [0.8, 0.9, 0.8, 0.2, 0.1, 0.6, 0.3, 0.2],  # longest run from t = 0
        [0.2, 0.1, 0.6, 0.3, 0.2, 0.8, 0.9, 0.8],  # longest run to the end
        [0.8, 0.9, 0.8, 0.2, 0.1, 0.3, 0.9, 0.8],  # no run inside the data
    ], ids=["cut_at_start", "cut_at_end", "no_complete_run"])
    def test_cut_off_run_rejected(self, f1):
        with pytest.raises(PipelineError, match="cut off") as exc:
            half_period(np.arange(8.0), f1)
        assert exc.value.step == "find_crossing"

    def test_data_starting_near_the_maximum_rejected(self):
        # the half-period above 1/2 begins before the data; the one below it
        # (the trough) would be complete, but the pipeline uses only the first
        ds = exact_dataset(NoiseModel(1, 0, 2.5, 1), DEFAULT_GRID)
        with pytest.raises(PipelineError) as exc:
            estimate_pi(ds)
        assert exc.value.step == "find_crossing"

    @pytest.mark.parametrize("shots", [256, 8192])
    @pytest.mark.parametrize("c", [0.75, 1.0, 1.3, 1.45, 1.6, 1.9, 2.2])
    def test_every_phase_gives_pi_or_fails_at_a_step(self, c, shots):
        # 20 runs at each of 12 phases in (-pi, pi]: pi_hat is never silently
        # wrong, though a half-period cut off by the data fails
        phases = np.linspace(-math.pi, math.pi, 13)[1:]
        fractions = np.concatenate([
            sample_counts(NoiseModel(0.9, 0.05, phi0, c), DEFAULT_GRID, shots,
                          seed, 20) / shots
            for seed, phi0 in enumerate(phases)])
        rows = estimate_rows(GRID_TIMES, fractions)
        steps = {"rough_alpha_beta", "normalize", "find_crossing",
                 "refine_alpha_beta", "refine_crossing_linear",
                 "trapezoid_integral"}
        for r, err in enumerate(rows.errors):
            where = f"phi0={phases[r // 20]:.3f}, run {r % 20}"
            if err is None:
                assert abs(rows.pi_hat[r] - math.pi) <= 0.5, where
            else:
                assert isinstance(err, PipelineError) and err.step in steps, where
        assert rows.ok.any()


class TestRefineAlphaBeta:
    def test_ideal_windows(self):
        # oracle values computed from (1 - cos t)/2 at the window grid points
        curve = ideal_curve()
        t1 = find_crossing(curve, 1.5)
        t2 = find_crossing(curve, 4.5)
        a, b, t_minval, t_maxval = refine_alpha_beta(curve, t1, t2)
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
        a, b, _, _ = refine_alpha_beta(curve, 1.575, 4.725)
        assert (a, b) == pytest.approx((0.95, 0.02))

    def test_empty_window_rejected(self):
        curve = NormalizedCurve(np.array([0.0, 2.0, 6.0]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(PipelineError):
            refine_alpha_beta(curve, 1.5, 4.5)


class TestRefineCrossingLinear:
    def test_line_recovers_itself(self):
        t = np.arange(0.0, 4.05, 0.1)
        curve = NormalizedCurve(t, 0.3 + 0.1 * t)
        assert refine_crossing_linear(curve, 2.0) == pytest.approx(2.0)

    def test_ideal_crossing_bias(self):
        curve = ideal_curve()
        t = refine_crossing_linear(curve, math.pi / 2)
        assert abs(t - math.pi / 2) < 3e-3

    def test_constant_rejected(self):
        curve = NormalizedCurve(GRID_TIMES, np.full(len(GRID_TIMES), 0.5))
        with pytest.raises(PipelineError):
            refine_crossing_linear(curve, 1.5)

    def test_too_few_points_rejected(self):
        curve = NormalizedCurve(np.array([0.0, 3.0]), np.array([0.0, 1.0]))
        with pytest.raises(PipelineError):
            refine_crossing_linear(curve, 0.0)

    @pytest.mark.parametrize("f1,t_i,beyond", [
        (0.4 * np.linspace(0, 1, 11), 0.9, 1.25),   # past the last time
        (0.6 + 0.4 * np.linspace(0, 1, 11), 0.1, -0.25),  # before the first
    ])
    def test_extrapolation_past_data_rejected(self, f1, t_i, beyond):
        # the windowed line reaches the level only outside [0, 1]
        curve = NormalizedCurve(np.linspace(0, 1, 11), f1)
        with pytest.raises(PipelineError, match="outside data range") as exc:
            refine_crossing_linear(curve, t_i)
        assert exc.value.step == "refine_crossing_linear"
        assert float(str(exc.value).split()[3]) == pytest.approx(beyond)


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
            assert r.c_hat == 1 / r.integral_I
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
        alpha, beta = rough_alpha_beta(ds)
        curve = normalize(ds, alpha, beta)
        # here the crossings nearest 1.5 and 4.5 bound the longest run above
        # 1/2, the half-period the pipeline takes
        t1 = find_crossing(curve, 1.5)
        t2 = find_crossing(curve, 4.5)

        def pi_from(t1, t2):
            a5, b5, _, _ = refine_alpha_beta(curve, t1, t2)
            refined = normalize(ds, alpha * a5, beta + alpha * b5)
            u1 = refine_crossing_linear(refined, t1)
            u2 = refine_crossing_linear(refined, t2)
            return (u2 - u1) / trapezoid_integral(refined, u1, u2)

        assert pi_from(t1, t2) == estimate_pi(ds).pi_hat
        for shift in (-5e-11, 5e-11):
            assert pi_from(t1 + shift, t2 + shift) == pytest.approx(
                pi_from(t1, t2), abs=1e-12)

    def test_failure_identifies_step(self):
        with pytest.raises(PipelineError) as exc:
            estimate_pi(constant_dataset())
        assert exc.value.step == "rough_alpha_beta"

    def test_crossing_level_is_not_configurable(self):
        # the unit-area identity holds between half-level crossings only
        curve = ideal_curve()
        for call in (lambda: estimate_pi(exact_dataset(IDEAL, DEFAULT_GRID),
                                         level=0.3),
                     lambda: trapezoid_integral(curve, 1.5, 4.5, level=0.3),
                     lambda: refine_crossing_linear(curve, 1.5, level=0.3),
                     lambda: find_crossing(curve, 1.5, level=0.3)):
            with pytest.raises(TypeError):
                call()

    def test_c_hat_is_the_reciprocal_integral(self):
        r = estimate_pi(sample_dataset(NoiseModel(0.9, 0.05, 0, 1.1),
                                       DEFAULT_GRID, 8192, seed=3))
        assert r.c_hat == 1 / r.integral_I
        # a result cannot carry a rate that disagrees with its integral
        with pytest.raises(TypeError):
            EstimateResult(**{**dataclasses.asdict(r), "c_hat": 1.0})


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

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.1, 0.3], [0.0, 0.2, 0.1, 0.3],
                                       [0.0, np.nan, 0.2, 0.3],
                                       [0.0, 0.1, 0.2, np.inf],
                                       [-np.inf, 0.1, 0.2, 0.3]])
    def test_times_not_increasing_rejected(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            estimate_rows(times, np.full((2, 4), 0.5))

    @pytest.mark.parametrize("times, fractions", [
        ([0.0], np.full((2, 1), 0.5)), ([[0.0, 0.1]], np.full((2, 2), 0.5)),
        ([0.0, 0.1, 0.2], np.full(3, 0.5)), ([0.0, 0.1, 0.2], np.full((2, 4), 0.5))])
    def test_shapes_rejected(self, times, fractions):
        with pytest.raises(ValueError, match="one column of fractions per time"):
            estimate_rows(times, fractions)


# -- reference: the full-row masked steps ------------------------------------
#
# The pipeline's row-wise steps read only the knots they use.  These are the
# steps as they were before, masking or scanning every knot of every row.
# The tests below require the same failures and messages and bit-identical
# values: on rows of up to 128 knots a slab's sums round as the full row's
# do (see ``rabipi.estimate._slab``).


def ref_segment_zeros(t, g):
    ga, gb = g[:, :-1], g[:, 1:]
    return np.minimum(t[:-1] + np.diff(t) * (ga / (ga - gb)), t[1:])


def ref_find_half_period(t, f1, level, fails):
    g = f1 - level
    above = g >= 0
    rows, knots = np.arange(len(g)), np.arange(len(t))
    x = ref_segment_zeros(t, g)
    rise = np.concatenate((np.full((len(g), 1), t[0]),
                           np.where(g[:, 1:] == 0, t[1:], x)), axis=1)
    fall = np.concatenate((x, np.full((len(g), 1), t[-1])), axis=1)
    starts = above.copy()
    starts[:, 1:] &= ~above[:, :-1]
    ends = above.copy()
    ends[:, :-1] &= ~above[:, 1:]
    first = np.maximum.accumulate(np.where(starts, knots, 0), axis=1)
    length = np.where(ends, fall - np.take_along_axis(rise, first, axis=1),
                      -np.inf)
    j = length.argmax(axis=1)
    i = first[rows, j]
    t1, t2 = rise[rows, i], fall[rows, j]
    fails.check((i > 0) & (j < len(t) - 1), "find_crossing",
                lambda r: f"the longest run at or above level {level}, "
                          f"[{t1[r]}, {t2[r]}], is cut off by the data range "
                          f"[{t[0]}, {t[-1]}]; no complete half-period")
    return t1, t2


def ref_window_mean(t, f1, center, delta):
    inside = np.abs(t - center[:, None]) < delta
    n = inside.sum(axis=1)
    return (f1 * inside).sum(axis=1) / n, n


def ref_refine_alpha_beta(t, f1, t1, t2, delta, fails):
    t_lo, t_hi = t[0], t[-1]
    t_maxval = (t1 + t2) / 2
    below, above = (3 * t1 - t2) / 2, (3 * t2 - t1) / 2
    tie = rabipi.estimate._TIE_STEPS * np.diff(t).min()
    t_minval = np.where(below >= t_lo - tie, below, np.where(
        above <= t_hi + tie, above, np.clip(below, t_lo, t_hi)))
    beta, n_min = ref_window_mean(t, f1, t_minval, delta - tie)
    top, n_max = ref_window_mean(t, f1, t_maxval, delta - tie)
    fails.check(n_min > 0, "refine_alpha_beta",
                lambda r: f"no grid points within {delta} of t_minval={t_minval[r]}")
    fails.check(n_max > 0, "refine_alpha_beta",
                lambda r: f"no grid points within {delta} of t_maxval={t_maxval[r]}")
    return top - beta, beta, t_minval, t_maxval


def ref_refine_crossing_linear(t, f1, t_i, window, level, fails):
    tie = rabipi.estimate._TIE_STEPS * np.diff(t).min()
    w = np.abs(t - t_i[:, None]) <= window + tie
    n = w.sum(axis=1)
    fails.check(n >= 2, "refine_crossing_linear",
                lambda r: f"need >= 2 points within {window} of t={t_i[r]}, "
                          f"got {n[r]}")
    t_mean = (w * t).sum(axis=1) / n
    f_mean = (w * f1).sum(axis=1) / n
    dt = w * (t - t_mean[:, None])
    slope = (dt * (f1 - f_mean[:, None])).sum(axis=1) / (dt * dt).sum(axis=1)
    fails.check(np.abs(slope) >= 1e-12, "refine_crossing_linear",
                lambda r: f"fitted slope {slope[r]} too small; no crossing defined")
    t_hat = t_mean + (level - f_mean) / slope
    fails.check((t[0] <= t_hat) & (t_hat <= t[-1]), "refine_crossing_linear",
                lambda r: f"refined crossing {t_hat[r]} outside data range "
                          f"[{t[0]}, {t[-1]}]")
    return t_hat


def ref_trapezoid_integral(t, f1, t1, t2, level, fails):
    fails.check((t[0] <= t1) & (t1 < t2) & (t2 <= t[-1]), "trapezoid_integral",
                lambda r: f"limits [{t1[r]}, {t2[r]}] invalid for range "
                          f"[{t[0]}, {t[-1]}]")
    g = f1 - level
    rows = np.arange(len(g))
    panels = (g[:, :-1] + g[:, 1:]) / 2 * np.diff(t)
    to_knot = np.concatenate((np.zeros((len(g), 1)), np.cumsum(panels, axis=1)),
                             axis=1)

    def to(x):
        k = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
        gx = rabipi.estimate._interpolate(t, g, x[:, None])[:, 0]
        return to_knot[rows, k] + (g[rows, k] + gx) / 2 * (x - t[k])

    return to(t2) - to(t1)


def run_step(step, *args):
    """A row-wise step's outputs and its failures as (step, message) pairs."""
    fails = rabipi.estimate._Failures(len(args[1]))
    with np.errstate(all="ignore"):
        out = step(*args, fails)
    return out, [e and (e.step, str(e)) for e in fails.errors], fails.ok


def sampled_rows(t, rng, rows):
    """Normalized sampled fractions on times ``t``: c 0.75-2.2, any phase,
    16 to 8192 shots, with some knots moved onto the level."""
    f = np.empty((rows, len(t)))
    for r in range(rows):
        m = NoiseModel(rng.uniform(0.5, 0.8), rng.uniform(0, 0.2),
                       rng.uniform(-math.pi, math.pi), rng.uniform(0.75, 2.2))
        shots = int(rng.choice([16, 256, 8192]))
        f[r] = rng.binomial(shots, np.clip(noisy_prob(m, t), 0, 1)) / shots
    lo, hi = f.min(axis=1, keepdims=True), f.max(axis=1, keepdims=True)
    f1 = (f - lo) / np.where(hi > lo, hi - lo, 1.0)
    on_level = rng.random(f1.shape) < 0.05
    f1[on_level] = 0.5
    return f1


REF_TIMES = {
    "grid_0.05": make_grid(0.0, 6.3, 0.05).times(),
    "grid_0.1": GRID_TIMES,
    "grid_0.2": make_grid(0.0, 6.4, 0.2).times(),
    "non_uniform": np.cumsum(np.random.default_rng(7).uniform(0.02, 0.25, 60)),
}


def edge_centers(t, rng, rows, half):
    """Window centres on random knots, moved by exactly ``half`` and by a
    tie or two either way, or random in and just outside the data."""
    tie = rabipi.estimate._TIE_STEPS * np.diff(t).min()
    knots = t[rng.integers(0, len(t), rows)]
    shift = rng.choice([-1, 1], rows) * (
        half + tie * rng.choice([-2, -1, -0.5, 0, 0.5, 1, 2], rows))
    anywhere = rng.uniform(t[0] - 0.3, t[-1] + 0.3, rows)
    return np.where(rng.random(rows) < 0.7, knots + shift, anywhere)


@pytest.mark.parametrize("times", REF_TIMES.values(), ids=REF_TIMES.keys())
class TestMatchesFullRowReference:
    def test_half_period_bit_identical(self, times):
        rng = np.random.default_rng(1)
        f1 = sampled_rows(times, rng, 300)
        f1[:3] = [np.full(len(times), 0.2), np.full(len(times), 0.5),
                  np.where(np.arange(len(times)) % 2, 0.9, 0.1)]
        new = run_step(rabipi.estimate._find_half_period, times, f1, 0.5)
        ref = run_step(ref_find_half_period, times, f1, 0.5)
        for a, b in zip(new[0], ref[0]):
            np.testing.assert_array_equal(a, b)
        assert new[1] == ref[1]
        assert any(new[1]) and not all(new[1])

    @pytest.mark.parametrize("delta", [0.1, 0.23])
    def test_refine_alpha_beta(self, times, delta):
        rng = np.random.default_rng(2)
        f1 = sampled_rows(times, rng, 400)
        # t_maxval on a window edge for most rows, t_minval anywhere
        t_maxval = edge_centers(times, rng, len(f1), delta)
        spread = rng.uniform(1.0, 4.0, len(f1))
        t1, t2 = t_maxval - spread / 2, t_maxval + spread / 2
        new = run_step(rabipi.estimate._refine_alpha_beta, times, f1, t1, t2,
                       delta)
        ref = run_step(ref_refine_alpha_beta, times, f1, t1, t2, delta)
        assert new[1] == ref[1]
        ok = new[2]
        assert ok.any() and not ok.all()
        for a, b in zip(new[0][2:], ref[0][2:]):  # t_minval, t_maxval
            np.testing.assert_array_equal(a, b)
        for a, b in zip(new[0][:2], ref[0][:2]):
            np.testing.assert_array_equal(a[ok], b[ok])

    @pytest.mark.parametrize("window", [0.5, 0.31])
    def test_refine_crossing_linear(self, times, window):
        rng = np.random.default_rng(3)
        f1 = sampled_rows(times, rng, 400)
        f1[:2] = 0.5  # a flat row: no slope
        t_i = np.array([edge_centers(times, rng, len(f1), window)
                        for _ in range(2)])
        new = run_step(rabipi.estimate._refine_crossing_linear, times, f1,
                       t_i, window, 0.5)
        fails = rabipi.estimate._Failures(len(f1))
        with np.errstate(all="ignore"):
            ref = [ref_refine_crossing_linear(times, f1, x, window, 0.5, fails)
                   for x in t_i]
        assert new[1] == [e and (e.step, str(e)) for e in fails.errors]
        messages = {m.split(" ")[1] for _, m in filter(None, new[1])}
        assert messages == {"need", "fitted", "refined"}
        ok = new[2]
        np.testing.assert_array_equal(new[0][:, ok], np.array(ref)[:, ok])

    def test_trapezoid_integral(self, times):
        rng = np.random.default_rng(4)
        f1 = sampled_rows(times, rng, 400)
        n = len(f1)
        on_knots = times[rng.integers(0, len(times), (2, n))]
        anywhere = rng.uniform(times[0] - 0.2, times[-1] + 0.2, (2, n))
        t1, t2 = np.where(rng.random((2, n)) < 0.3, on_knots, anywhere)
        t2[:5] = np.nextafter(t1[:5], np.inf)  # both limits on one panel
        new = run_step(rabipi.estimate._trapezoid_integral, times, f1, t1, t2,
                       0.5)
        ref = run_step(ref_trapezoid_integral, times, f1, t1, t2, 0.5)
        assert new[1] == ref[1]
        ok = new[2]
        assert ok.any() and not ok.all()
        np.testing.assert_array_equal(new[0][ok], ref[0][ok])


class TestWindows:
    """A centre's window in ``_windows``' tables holds exactly the knots that
    ``|t - c|``, as float subtraction rounds it, puts within the half-width
    and a tie (strictly within it less a tie), as the steps once masked
    every knot, on centres at the tables' edges, a tie either side of a
    knot's edge and anywhere."""

    @pytest.mark.parametrize("half, strict", [(REFINE_WINDOW, False), (0.31, False),
                                              (DELTA, True), (0.23, True)])
    @pytest.mark.parametrize("times", [*REF_TIMES.values(), 1e3 + GRID_TIMES,
                                       GRID_TIMES - 3.0],
                             ids=[*REF_TIMES, "offset", "negative"])
    def test_window_holds_the_knots_within_the_half_width(self, times, half, strict):
        win = rabipi.estimate._windows(times.tobytes(), half, strict)
        h = half - win.tie if strict else half + win.tie
        rng = np.random.default_rng(6)
        centres = np.concatenate((edge_centers(times, rng, 400, half), win.edges,
                                  np.nextafter(win.edges, -np.inf),
                                  [-np.inf, np.inf, np.nan]))
        d = np.abs(times - centres[:, None])
        inside = d < h if strict else d <= h
        count, start, low, high = win.knots.take(
            win.edges.searchsorted(centres, side="right"), axis=1)
        assert np.array_equal(count, inside.sum(axis=1))
        held = count > 0
        assert np.array_equal((start + low)[held], inside.argmax(axis=1)[held])
        last = len(times) - 1 - inside[:, ::-1].argmax(axis=1)
        assert np.array_equal((start + high - 1)[held], last[held])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 7e4, 3e8])
    def test_first_centres_are_the_least(self, scale):
        # at every knot and bound, the difference is at most the bound from
        # the centre returned on, and above it one double below
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(-scale, scale, 200))
        half = scale * rng.uniform(1e-3, 0.1)
        bound = np.array([[half], [np.nextafter(half, -np.inf)], [-half],
                          [np.nextafter(-half, -np.inf)]])
        c = rabipi.estimate._first_centres(t, bound)
        assert np.all(t - c <= bound)
        assert not np.any(t - np.nextafter(c, -np.inf) <= bound)

    def test_tables_are_read_only_and_kept_for_four_windows(self):
        win = rabipi.estimate._windows(GRID_TIMES.tobytes(), REFINE_WINDOW, False)
        arrays = [a for a in win if isinstance(a, np.ndarray)]
        assert len(arrays) == 5 and not any(a.flags.writeable for a in arrays)
        assert rabipi.estimate._windows.cache_info().maxsize == 4


def ref_estimate_rows(t, f):
    """``estimate_rows`` composed of the reference steps."""
    est = rabipi.estimate
    fails = est._Failures(len(f))
    with np.errstate(all="ignore"):
        alpha1, beta1 = est._rough_alpha_beta(f, fails)
        f1 = est._normalize(f, alpha1, beta1, fails)
        t1, t2 = ref_find_half_period(t, f1, 0.5, fails)
        alpha5, beta5, t_minval, t_maxval = ref_refine_alpha_beta(
            t, f1, t1, t2, DELTA, fails)
        fails.check(alpha5 > 0, "refine_alpha_beta",
                    lambda r: f"refined amplitude {alpha5[r]} is not positive")
        alpha_hat, beta_hat = alpha1 * alpha5, beta1 + alpha1 * beta5
        f1 = est._normalize(f, alpha_hat, beta_hat, fails)
        u1 = ref_refine_crossing_linear(t, f1, t1, REFINE_WINDOW, 0.5, fails)
        u2 = ref_refine_crossing_linear(t, f1, t2, REFINE_WINDOW, 0.5, fails)
        fails.check(u1 < u2, "refine_crossing_linear",
                    lambda r: f"refined crossings out of order: "
                              f"{u1[r]} >= {u2[r]}")
        integral = ref_trapezoid_integral(t, f1, u1, u2, 0.5, fails)
        fails.check(integral > 0, "trapezoid_integral",
                    lambda r: f"integral {integral[r]} is not positive")
        pi_hat = (u2 - u1) / integral
    return dict(alpha_hat=alpha_hat, beta_hat=beta_hat, t1_hat=u1, t2_hat=u2,
                integral_I=integral, pi_hat=pi_hat,
                t_minval=t_minval, t_maxval=t_maxval,
                errors=[e and (e.step, str(e)) for e in fails.errors])


@pytest.mark.parametrize("grid,shots,c", [
    (DEFAULT_GRID, 8192, 1.0), (make_grid(0.0, 6.3, 0.05), 256, 1.1),
    (make_grid(0.0, 6.4, 0.2), 512, 0.75), (DEFAULT_GRID, 64, 2.2),
    (make_grid(0.0, 6.5, 0.25), 1024, 1.3),  # plateau windows go empty
])
def test_pipeline_matches_full_row_reference(grid, shots, c):
    # every phase at one rate, with the steps' failures among the rows
    t = grid.times()
    phases = np.linspace(-math.pi, math.pi, 25)[1:]
    f = np.concatenate([
        sample_counts(NoiseModel(0.9, 0.05, phi0, c), grid, shots, seed, 20)
        for seed, phi0 in enumerate(phases)]) / shots
    f[:2] = [np.full(len(t), 0.5), np.where(np.arange(len(t)) == 3, np.nan, 0.5)]
    rows, ref = estimate_rows(t, f), ref_estimate_rows(t, f)
    assert [e and (e.step, str(e)) for e in rows.errors] == ref["errors"]
    for name in ("alpha_hat", "beta_hat", "t1_hat", "t2_hat", "integral_I",
                 "pi_hat", "t_minval", "t_maxval"):
        np.testing.assert_array_equal(getattr(rows, name)[rows.ok],
                                      ref[name][rows.ok])
    assert {"rough_alpha_beta", "normalize"} <= {e[0] for e in filter(None, ref["errors"])}


def test_row_does_not_depend_on_its_batch():
    # dense knots early and sparse ones late, so the windows hold from a few
    # knots to dozens; a flat row fails among 149 sampled ones
    t = np.concatenate((np.arange(0.0, 2.4, 0.03), np.arange(2.4, 9.0, 0.15)))
    rng = np.random.default_rng(5)
    f = np.array([rng.binomial(512, noisy_prob(NoiseModel(0.9, 0.05, phi0, 0.7), t))
                  / 512 for phi0 in rng.uniform(-math.pi, math.pi, 149)])
    f = np.insert(f, 75, 0.3, axis=0)
    batch = estimate_rows(t, f)
    assert batch.errors[75].step == "rough_alpha_beta"
    assert batch.ok.sum() > 50
    for r in range(len(f)):
        alone = estimate_rows(t, f[r:r + 1])
        assert [e and str(e) for e in alone.errors] == [
            batch.errors[r] and str(batch.errors[r])]
        for field in dataclasses.fields(alone):
            if field.name != "errors":
                assert np.array_equal(getattr(alone, field.name),
                                      getattr(batch, field.name)[r:r + 1],
                                      equal_nan=True), (r, field.name)


def one_file(t, f, c):
    """``_fit_at_rates`` on one file's fractions ``f`` (n,) at its rates
    ``c`` (rates,), a batch of one: each output's one row."""
    return tuple(o[0] for o in rabipi.estimate._fit_at_rates(t, f[None], c[None]))


def batched(reference):
    """A one-file reference as a kernel of ``_fit_at_rates``'s shapes: each
    file of ``f`` (files, n) at its row of ``c`` (files, rates)."""
    def kernel(t, f, c):
        return tuple(np.array(o) for o in zip(*(reference(t, fr, cr)
                                                for fr, cr in zip(f, c))))
    return kernel


def pinv_fit_at_rates(t, f, c):
    """Reference for ``_fit_at_rates`` on one file ``f`` (n,) at its rates
    ``c`` (rates,): (k, u, v) by a batched pseudo-inverse of the uncentred
    basis (1, -cos ct, -sin ct) at each rate.  Where a level k -/+ |(u, v)|
    is off [0, 1], the curve k - r q, q the unit sinusoid of that phase, is
    refitted on each edge crossed, k = r or k = 1 - r, by a one-column
    least-squares fit of r, clipped to [0, 1/2]; the edge of lower RSS wins."""
    ct = np.multiply.outer(c, t)
    basis = np.stack((np.ones_like(ct), -np.cos(ct), -np.sin(ct)), axis=-1)
    k, u, v = np.moveaxis(np.linalg.pinv(basis) @ f, -1, 0)
    r = np.hypot(u, v)
    low, high = k - r, k + r
    for j in np.flatnonzero(((low < 0) | (high > 1)) & (r > 0)):
        q = (u[j] * np.cos(ct[j]) + v[j] * np.sin(ct[j])) / r[j]
        edges = []
        for e, crossed in ((0.0, low[j] < 0), (1.0, high[j] > 1)):
            if crossed:  # f - e = r * (1 - 2e - q) on this edge
                x = 1 - 2 * e - q
                re = min(max(np.dot(f - e, x) / np.dot(x, x), 0.0), 0.5)
                edges.append((((f - e - re * x) ** 2).sum(), e, re))
        _, e, re = min(edges)
        low[j], high[j] = (0.0, 2 * re) if e == 0 else (1 - 2 * re, 1.0)
    alpha, beta = high - low, low
    phi0 = np.arctan2(-v, u)
    pred = alpha[:, None] * (1 - np.cos(ct + phi0[:, None])) / 2 + beta[:, None]
    return ((f - pred) ** 2).sum(axis=1), alpha, beta, phi0


def plain_levels(k, r, uy, mean_f):
    """Reference for ``_solve``'s alpha and beta bit for bit, from the
    unconstrained (k, r) at each rate, uy = (u*yc + v*ys)/n and the mean
    fraction: the levels k -/+ r where both lie in [0, 1]; elsewhere, where
    r > 0, the best curve of that phase on each edge crossed, k = e + s*r
    with (e, s) = (0, 1) or (1, -1), and of those the one of lower RSS, the
    first on a tie, each computed rate by rate as ``_edge`` writes it."""
    low, high = k - r, k + r
    for j in np.flatnonzero(((low < 0) | (high > 1)) & (r > 0)):
        edges = []
        for e, s, crossed in ((0.0, 1.0, low[j] < 0), (1.0, -1.0, high[j] > 1)):
            if crossed:
                a = s * r[j] - (k[j] - mean_f)
                re = np.clip(r[j] * ((mean_f - e) * a - uy[j]) / (a * a - uy[j]), 0.0, 0.5)
                edges.append(((r[j] * (e - mean_f) + re * a) ** 2 - uy[j] * (re - r[j]) ** 2,
                              e, re))
        _, e, re = min(edges)
        low[j], high[j] = (0.0, 2 * re) if e == 0 else (1 - 2 * re, 1.0)
    return high - low, low


def plain_fit_at_rates(t, f, c):
    """Reference for ``_fit_at_rates`` bit for bit, on one file ``f`` (n,)
    at its rates ``c`` (rates,): the same arithmetic written plainly, with
    ``mean``, ``clip``, ``where`` and a temporary for every step, and the
    levels off [0, 1] refitted rate by rate (``plain_levels``)."""
    ct = np.multiply.outer(c, t)
    cos, sin = np.cos(ct), np.sin(ct)
    mean_cos, mean_sin, mean_f = cos.mean(axis=1), sin.mean(axis=1), f.mean()
    cc, ss = cos - mean_cos[:, None], sin - mean_sin[:, None]
    y = f - mean_f
    yc, ys = (cc * y).sum(axis=1), (ss * y).sum(axis=1)
    c2, s2, cs = (cc * cc).sum(axis=1), (ss * ss).sum(axis=1), (cc * ss).sum(axis=1)
    det = c2 * s2 - cs * cs
    collinear = det <= np.finfo(float).eps * (c2 + s2) ** 2
    det = np.where(collinear, np.inf, det)
    u = (ys * cs - yc * s2) / det
    v = (yc * cs - ys * c2) / det
    k, r = mean_f + u * mean_cos + v * mean_sin, np.hypot(u, v)
    alpha, beta = plain_levels(k, r, (u * yc + v * ys) / len(t), mean_f)
    phi0 = np.arctan2(-v, u)
    half = alpha / 2
    pred = ((beta + half)[:, None] - (half * np.cos(phi0))[:, None] * cos
            + (half * np.sin(phi0))[:, None] * sin)
    rss = np.where(collinear, np.inf, ((f - pred) ** 2).sum(axis=1))
    return rss, alpha, beta, phi0


def fit_corpus():
    """400 datasets over c = 0.3..2.5, 256/8192 shots, phi0 in {0, 2} and
    0.1/0.05 grids, every 5th with a calibration step."""
    for i in range(400):
        c = 0.3 + 0.1 * (i % 23)
        grid = make_grid(0.0, 6.3, (0.1, 0.05)[i // 92 % 2])
        ds = sample_dataset(NoiseModel(0.8, 0.1, (0.0, 2.0)[i // 46 % 2], c),
                            grid, (256, 8192)[i // 23 % 2], seed=i)
        if i % 5 == 0:
            ds = inject_step(ds, 3.0, 0.15 if ds.fractions()[35] < 0.5
                             else -0.15)
        yield i, ds


#: Fits 48 seeded files and prints each fit's parameters in hex, one line
#: per file.
_FIT_BITS_CHILD = """
from rabipi import NoiseModel, fit_model, make_grid, sample_dataset

for k in range(48):
    ds = sample_dataset(NoiseModel(0.85, 0.08, 0.4 * k, 0.4 + 0.05 * k),
                        make_grid(0.0, 6.3, (0.1, 0.05)[k % 2]),
                        (256, 8192)[k // 2 % 2], seed=k)
    m = fit_model(ds)
    print(*(float(v).hex() for v in (m.alpha, m.beta, m.phi0, m.c)))
"""


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

    #: fit_corpus files whose best curve is constraint-bound (beta = 0 or
    #: alpha + beta = 1), and the RSS that a rate search of rounds alone
    #: (4 rounds of 33 rates, then a vertex) reached on each
    CONSTRAINT_BOUND = {46: 0.02783535752635243, 92: 0.0952560910833329,
                        139: 0.09331158500196243, 254: 0.0012513755830493396,
                        369: 0.044231927793133216, 370: 0.07790603362588618}

    def test_constraint_bound_files_reach_the_rounds_residual(self):
        # the rounds' residuals are those of levels clipped to [0, 1]; the
        # levels fitted on the edge and the parabolic steps must not stop
        # above them
        corpus = dict(fit_corpus())
        for i, rounds in self.CONSTRAINT_BOUND.items():
            ds = corpus[i]
            m = fit_model(ds)
            assert m.beta == 0 or m.alpha + m.beta == 1, i
            rss = one_file(ds.times(), ds.fractions(), np.array([m.c]))[0][0]
            assert rss <= rounds * (1 + 1e-12), i

    def test_levels_are_the_best_valid_ones_at_the_fitted_phase(self):
        # at the fitted rate and phase, no levels 0 <= beta <= alpha + beta
        # <= 1 give a lower RSS, on a grid over all of them and a finer one
        # around the fit's; the unconstrained curve's levels, clipped to
        # [0, 1], fail this
        corpus = dict(fit_corpus())
        coarse, fine = np.linspace(0.0, 1.0, 201), np.arange(-100, 101) * 1e-5

        def rss(f, q, low, high):
            low, high = (a.ravel() for a in np.meshgrid(low, high))
            valid = (0 <= low) & (low <= high) & (high <= 1)
            low, high = low[valid, None], high[valid, None]
            return (((f - (low + (high - low) * (1 - q) / 2)) ** 2).sum(axis=1))

        for i in self.CONSTRAINT_BOUND:
            ds = corpus[i]
            f, m = ds.fractions(), fit_model(ds)
            q = np.cos(m.c * ds.times() + m.phi0)
            fit = ((f - (m.beta + m.alpha * (1 - q) / 2)) ** 2).sum()
            best = min(rss(f, q, coarse, coarse).min(),
                       rss(f, q, m.beta + fine, m.alpha + m.beta + fine).min())
            assert fit <= best * (1 + 1e-12), i

    def test_lower_of_two_clipping_pieces_in_the_round(self):
        # with the levels clipped to [0, 1] the RSS had a local minimum on
        # each side of c = 0.9005, where the clipping of the lowest level
        # switched: rounds reached the lower, c = 0.89917 with RSS 0.0671910,
        # and parabolic steps from the round's best would stop at the
        # other, c = 0.90189 with RSS 0.0672585.  Levels fitted on the edge
        # of [0, 1] leave one minimum, c = 0.9029662 with RSS 0.0671169, and
        # the search must reach it and stay below the old one.
        ds = inject_step(sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=3),
                         4.0, 0.15)
        m = fit_model(ds)
        rss = one_file(ds.times(), ds.fractions(), np.array([m.c]))[0][0]
        assert m.c == pytest.approx(0.9029662, abs=1e-6)
        assert rss == pytest.approx(0.0671169, abs=1e-7)
        assert rss <= 0.0671910153889525 * (1 + 1e-12)

    def test_rate_is_stationary_on_clean_files(self):
        # on files without a step, no rate 1e-6 of c away from the fitted
        # one has a lower RSS
        files = [ds for i, ds in fit_corpus() if i % 5] + list(fit_bits_files())
        for k, ds in enumerate(files):
            t, f = ds.times(), ds.fractions()
            c = fit_model(ds).c
            rss = one_file(t, f, np.array([c * (1 - 1e-6), c, c * (1 + 1e-6)]))[0]
            assert rss[1] <= rss[0] and rss[1] <= rss[2], k

    @pytest.mark.parametrize("gap", [1e-3, 1e-9])
    def test_scan_size_set_by_point_count(self, monkeypatch, gap):
        # two samples ``gap`` apart, as a CSV may hold: a scan up to
        # pi / min dt would evaluate 2 * span / gap rates
        truth = NoiseModel(0.8, 0.1, 0.2, 1.05)
        r = sample_dataset(truth, DEFAULT_GRID, 8192, seed=17)
        ds = Dataset(np.insert(r.t, 60, r.t[59] + gap), 8192,
                     np.insert(r.ones, 60, r.ones[59]))
        batches = []
        fit_at_rates = rabipi.estimate._fit_at_rates

        def counted(t, f, c):
            batches.append(c.size)
            return fit_at_rates(t, f, c)

        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates", counted)
        m = fit_model(ds)
        assert max(batches) < 2 * len(ds)
        assert m.alpha == pytest.approx(truth.alpha, abs=0.02)
        assert m.beta == pytest.approx(truth.beta, abs=0.02)
        assert m.phi0 == pytest.approx(truth.phi0, abs=0.02)
        assert m.c == pytest.approx(truth.c, abs=0.02)

    def test_scan_in_batches_matches_one_batch(self, monkeypatch):
        # batches of three rates; the best one, c = 2, is in the third
        ds = sample_dataset(NoiseModel(0.9, 0.05, 0.0, 2.0), DEFAULT_GRID,
                            8192, seed=100)
        whole = fit_model(ds)
        monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", 3 * len(ds))
        assert fit_model(ds) == whole

    def test_no_kernel_call_exceeds_scan_cells(self, monkeypatch):
        # the rate search's rounds are split as the scan is
        ds = sample_dataset(NoiseModel(0.9, 0.05, 0.0, 2.0), DEFAULT_GRID,
                            8192, seed=100)
        batches = []
        fit_at_rates = rabipi.estimate._fit_at_rates

        def counted(t, f, c):
            batches.append(c.size)
            return fit_at_rates(t, f, c)

        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates", counted)
        monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", 3 * len(ds))
        fit_model(ds)
        assert max(batches) == 3

    def test_not_caught_in_a_local_minimum(self):
        # a bounded Brent search stopped at c = 0.576 here, RSS 0.0822752
        ds = inject_step(sample_dataset(
            NoiseModel(0.621201932715864, 0.0024883256710159897,
                       -2.812980156616074, 0.8502626125989203),
            DEFAULT_GRID, 256, seed=208), 2.674257395428983, -0.2)
        t, f = ds.times(), ds.fractions()
        dense = one_file(t, f, np.linspace(0.25, 0.75, 20001))[0]
        assert dense.min() == pytest.approx(0.0764735, abs=1e-7)
        m = fit_model(ds)
        pred = m.alpha * (1 - np.cos(m.c * t + m.phi0)) / 2 + m.beta
        assert float(np.sum((f - pred) ** 2)) <= dense.min() + 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_underdetermined_rejected(self, n):
        # four parameters through fewer than four points: any of many
        # curves fits exactly, so no answer would mean anything
        full = exact_dataset(IDEAL, DEFAULT_GRID)
        ds = Dataset(full.t[10:10 + n], full.shots[10:10 + n], full.ones[10:10 + n])
        with pytest.raises(PipelineError, match="fit_model"):
            fit_model(ds)

    def test_kernel_row_does_not_depend_on_its_batch(self):
        # the rate search keeps the outputs of a step's best point, which
        # shared its call with other rates and files, so a rate must give
        # the same bits alone as among 32 others
        rates = np.linspace(0.5, 2.5, 33)
        for k in range(20):
            ds = sample_dataset(NoiseModel(0.9, 0.05, 0.3 * k, 0.6 + 0.1 * k),
                                DEFAULT_GRID, 8192, seed=k)
            t, f = ds.times(), ds.fractions()
            batch = one_file(t, f, rates)
            for j, c in enumerate(rates):
                alone = one_file(t, f, rates[j:j + 1])
                for a, b in zip(alone, batch):
                    assert a[0].tobytes() == b[j].tobytes(), (k, c)

    def test_fit_does_not_depend_on_the_blas_kernel(self):
        """The fits of 48 seeded files are the same bits in a fresh
        interpreter that asks OpenBLAS for its Prescott kernels as in one
        that lets it pick.  Where the BLAS ignores ``OPENBLAS_CORETYPE``
        (another BLAS, or OpenBLAS built without ``DYNAMIC_ARCH``) both
        children run the same kernels and the test passes trivially."""
        src = str(Path(rabipi.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            proc = subprocess.run([sys.executable, "-c", _FIT_BITS_CHILD],
                                  env=dict(env, **extra), capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert len(outs[0].splitlines()) == 48
        assert outs[0] == outs[1]

    def test_collinear_rate_gets_infinite_residual(self):
        # sin(ct) vanishes at every one of these times (up to rounding)
        t = np.array([0.0, math.pi, 2 * math.pi, 3 * math.pi])
        f = np.array([0.1, 0.9, 0.2, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rss = one_file(t, f, np.array([1.0]))[0]
        assert rss[0] == math.inf
        # alone and among other rates, bit for bit as the plain reference
        for c in (np.array([1.0]), np.array([0.5, 1.0, 0.7])):
            for a, b in zip(one_file(t, f, c), plain_fit_at_rates(t, f, c)):
                assert np.array_equal(a, b)

    def test_collinear_rate_of_fractions_above_one_is_not_refitted(self):
        # screen_rows takes any finite fractions: at a collinear rate u = v
        # = 0 and both levels are the mean 1.5, off [0, 1], but with no
        # phase there is no edge to refit them on, and no division by 0
        t = np.array([0.0, math.pi, 2 * math.pi, 3 * math.pi])
        f = np.array([1.1, 1.9, 1.2, 1.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rss, alpha, beta, _ = one_file(t, f, np.array([0.5, 1.0, 0.7]))
        assert rss[1] == math.inf and alpha[1] == 0 and beta[1] == 1.5
        assert (alpha[[0, 2]] + beta[[0, 2]] == 1).all()

    def test_matches_pseudo_inverse_reference(self, monkeypatch):
        # on ``fit_corpus`` both reach the same residual to 1e-12; the
        # parameters agree to 1e-6, not closer: on flat low-rate 256-shot
        # data the residual changes by a few ulp over +-5e-8 in c, and where
        # in that plateau either solver stops is rounding (differences up to
        # 2.7e-7 in 1,600 such datasets)
        closed_form = rabipi.estimate._fit_at_rates

        def fit(kernel, ds):
            monkeypatch.setattr(rabipi.estimate, "_fit_at_rates", kernel)
            return fit_model(ds)

        for i, ds in fit_corpus():
            a, b = fit(closed_form, ds), fit(batched(pinv_fit_at_rates), ds)
            monkeypatch.undo()
            t, f = ds.times(), ds.fractions()
            # the screen's only use of the fit is its rate
            verdicts = [jump_verdict(ds, m.c) for m in (a, b)]
            rss_a, rss_b = (pinv_fit_at_rates(t, f, np.array([m.c]))[0][0]
                            for m in (a, b))
            assert rss_a == pytest.approx(rss_b, rel=1e-12), i
            assert a.alpha == pytest.approx(b.alpha, abs=1e-6), i
            assert a.beta == pytest.approx(b.beta, abs=1e-6), i
            assert a.c == pytest.approx(b.c, abs=1e-6), i
            assert abs(math.remainder(a.phi0 - b.phi0, 2 * math.pi)) <= 1e-6, i
            assert verdicts[0] == verdicts[1], i

    def test_matches_plain_reference_bit_for_bit(self, monkeypatch):
        # the rate search's path turns on every bit of the RSS, so the
        # kernel must round every value as the plain reference does
        for i, ds in fit_corpus():
            t, f = ds.times(), ds.fractions()
            fit = fit_model(ds)
            step = math.pi / (2 * (t[-1] - t[0]))
            scan = step * np.arange(1, 2 * (len(t) - 1))
            for c in (scan, scan[i % len(scan):][:1], np.array([fit.c])):
                for a, b in zip(one_file(t, f, c), plain_fit_at_rates(t, f, c)):
                    assert np.array_equal(a, b), i
            monkeypatch.setattr(rabipi.estimate, "_fit_at_rates",
                                batched(plain_fit_at_rates))
            assert fit_model(ds) == fit, i
            monkeypatch.undo()


class TestBatchedFiles:
    """``screen_rows`` and its fit on many files at once give each file the
    bits ``screen_dataset`` and ``fit_model`` give it alone."""

    @staticmethod
    def batches(datasets):
        """The datasets grouped by their times: (times, fractions, shots,
        datasets) per group."""
        groups = {}
        for ds in datasets:
            groups.setdefault(ds.t.tobytes(), []).append(ds)
        return [(g[0].t, np.array([ds.fractions() for ds in g]),
                 np.array([ds.shots for ds in g]), g) for g in groups.values()]

    @staticmethod
    def same_fit(row, model):
        return all(np.float64(a).tobytes() == np.float64(b).tobytes()
                   for a, b in zip(row, (model.alpha, model.beta, model.phi0, model.c)))

    def test_fit_and_screen_match_one_file_calls_on_fit_corpus(self):
        corpus = [ds for _, ds in fit_corpus()]
        groups = self.batches(corpus)
        assert sorted(len(g[3]) for g in groups) == [184, 216]
        for t, f, shots, group in groups:
            rows = rabipi.estimate._fit_rows(t, f)
            verdicts = screen_rows(t, f, shots)
            for j, ds in enumerate(group):
                assert self.same_fit([o[j] for o in rows], fit_model(ds)), j
                assert verdicts[j] == screen_dataset(ds), j
            assert not all(verdicts) and any(verdicts)

    def test_kernel_calls_of_a_batch_stay_within_scan_cells(self, monkeypatch):
        # at six (file, rate) pairs per call, the three rates of a step of
        # two files share a call; at two, a step's three rates are split
        # into calls of two rates and one, one file each.  A single file is
        # a batch of one, split the same way.
        corpus = [ds for i, ds in fit_corpus() if i < 20 and i // 92 % 2 == 0]
        (t, f, _, group), = self.batches(corpus)
        sizes = []
        kernel = rabipi.estimate._fit_at_rates

        def counted(t, f, c):
            sizes.append(c.shape)
            return kernel(t, f, c)

        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates", counted)
        monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", 6 * len(t))
        rows = rabipi.estimate._fit_rows(t, f)
        assert max(math.prod(size) for size in sizes) == 6
        assert (2, 3) in sizes
        sizes.clear()
        monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", 2 * len(t))
        split = rabipi.estimate._fit_rows(t, f)
        assert set(sizes) == {(1, 2), (1, 1)}
        sizes.clear()
        one = fit_model(group[0])
        assert set(sizes) == {(1, 2), (1, 1)}
        monkeypatch.undo()
        assert self.same_fit([one.alpha, one.beta, one.phi0, one.c], fit_model(group[0]))
        for j, ds in enumerate(group):
            alone = fit_model(ds)
            assert self.same_fit([o[j] for o in rows], alone), j
            assert self.same_fit([o[j] for o in split], alone), j

    def test_a_row_that_bisects_and_one_that_steps_in_any_batch(self, monkeypatch):
        # file 46's minimum lies where its lowest level comes to sit at 0, so
        # the RSS's curvature jumps there, its parabolic steps fail and its
        # rate search bisects its bracket; file 47 converges in five steps,
        # none of them a bisection.  Each row gets the bits it gets alone in
        # any batch, in any order and under any _SCAN_CELLS.
        corpus = dict(fit_corpus())
        centres = []  # per fit, the rate of each step's centre
        kernel = rabipi.estimate._fit_at_rates

        def counted(t, f, c):
            if c.shape[-1] == 3:
                centres[-1].append(c[0, 1])
                assert len(centres[-1]) < 100, "the search does not end"
            return kernel(t, f, c)

        alone = {}
        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates", counted)
        for i in (46, 47, 0):
            centres.append([])
            alone[i] = fit_model(corpus[i])

        def bisected(cs):
            return any(cs[k] == (a + b) / 2 for k in range(len(cs))
                       for a in cs[:k] for b in cs[:k])

        assert bisected(centres[0]) and len(centres[0]) <= 10
        assert len(centres[1]) == 5 and not bisected(centres[1])
        monkeypatch.undo()
        for order, cells in (((46, 47, 0), None), ((0, 47, 46), None),
                             ((47, 46), 3)):
            if cells:
                monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS",
                                    cells * len(corpus[0]))
            t = corpus[0].t
            f = np.array([corpus[i].fractions() for i in order])
            rows = rabipi.estimate._fit_rows(t, f)
            for j, i in enumerate(order):
                assert self.same_fit([o[j] for o in rows], alone[i]), (order, i)

    def test_constant_and_too_short_rows(self):
        flat = constant_dataset()
        clean = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0)
        (t, f, shots, _), = self.batches([flat, clean, flat])
        assert screen_rows(t, f, shots) == (screen_dataset(flat), screen_dataset(clean),
                                           screen_dataset(flat))
        # under 4 times, each row that needs a rate gets the fit's error
        short = screen_rows(t[:3], np.array([[0.5, 0.5, 0.5], [0.1, 0.5, 0.9]]),
                            np.full((2, 3), 100))
        assert short[0] == ScreenVerdict(accepted=True)
        assert isinstance(short[1], PipelineError)
        assert str(short[1]) == "fit_model: need >= 4 times to fit 4 parameters, got 3"

    @pytest.mark.parametrize("shape", [(64,), (2, 63)])
    def test_shapes_that_do_not_match_the_times_rejected(self, shape):
        with pytest.raises(ValueError, match="one column of fractions and of shots"):
            screen_rows(GRID_TIMES, np.full(shape, 0.5), np.full(shape, 100))

    @pytest.mark.parametrize("case, match", [
        ("shots 0", "shots must be >= 1"), ("shots -5", "shots must be >= 1"),
        ("nan fraction", "fractions must be finite"),
        ("reversed times", "times must be finite and strictly increasing"),
        ("repeated time", "times must be finite and strictly increasing"),
        ("nan time", "times must be finite and strictly increasing"),
        ("inf time", "times must be finite and strictly increasing")])
    def test_malformed_input_rejected(self, case, match):
        # a file with a 0.15 step at t = 4.0, which the screen rejects; none
        # of these inputs may give it a verdict
        ds = inject_step(sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0), 4.0, 0.15)
        assert not screen_dataset(ds)
        t, f, shots = ds.t, ds.fractions()[None], ds.shots[None]
        if case.startswith("shots"):
            shots = np.full(f.shape, int(case.split()[1]))
        elif case == "nan fraction":
            f = f.copy()
            f[0, 5] = math.nan  # t = 0.5
        else:
            t = {"reversed times": t[::-1], "repeated time": np.r_[t[:10], t[9], t[11:]],
                 "nan time": np.r_[t[:10], math.nan, t[11:]],
                 "inf time": np.r_[t[:-1], math.inf]}[case]
        with pytest.raises(ValueError, match=match):
            screen_rows(t, f, shots)


def jump_verdict(ds, c):
    """The jump screen's verdict on ``ds`` at the rate ``c``."""
    return rabipi.estimate._jump_verdicts(ds.t, ds.fractions()[None], ds.shots[None],
                                          np.array([c]))[0]


def fitted_verdict(ds):
    """The verdict ``screen_rows`` must give ``ds``: the jump screen at
    ``fit_model``'s rate, with the rate search always run; a constant file
    is accepted."""
    f = ds.fractions()
    return ScreenVerdict(accepted=True) if f.min() == f.max() else \
        jump_verdict(ds, fit_model(ds).c)


def recorded_corpus():
    """The files of ``benchmarks/record_outputs.py``'s ``corpus``."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "record_outputs.py"
    spec = importlib.util.spec_from_file_location("record_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [ds for _, ds in module.corpus()]


class TestScreenBound:
    """``screen_rows`` accepts a row with no rate search when every jump is
    within the threshold at the least rate its search could return, and
    refines the other rows; every verdict is the one at the fitted rate."""

    @staticmethod
    def screen_and_count(datasets, monkeypatch):
        """``screen_rows`` on ``datasets``, which share their times, and
        the shapes of its kernel calls."""
        shapes = []
        kernel = rabipi.estimate._fit_at_rates
        monkeypatch.setattr(rabipi.estimate, "_fit_at_rates",
                            lambda t, f, c: shapes.append(c.shape) or kernel(t, f, c))
        verdicts = screen_rows(datasets[0].t, [ds.fractions() for ds in datasets],
                               [ds.shots for ds in datasets])
        monkeypatch.undo()
        return verdicts, shapes

    @staticmethod
    def demo_files():
        return [sample_dataset(m, DEFAULT_GRID, 8192, seed=20 + q)
                for q, m in enumerate(DEMO_QUBITS)]

    def test_fitted_verdict_on_the_recorded_corpus(self):
        corpus = recorded_corpus()
        assert len(corpus) == 648
        for t, f, shots, group in TestBatchedFiles.batches(corpus):
            for j, v in enumerate(screen_rows(t, f, shots)):
                assert v == fitted_verdict(group[j]), j

    @pytest.mark.parametrize("shots", [4, 16, 64])
    @pytest.mark.parametrize("grid", ["0.05", "0.2", "uneven"])
    def test_fitted_verdict_at_low_shots_and_other_grids(self, shots, grid):
        # every other file has a step near the noise allowance, 5 standard
        # deviations at p = 1/2, so that some rows are refined; at 4 shots
        # that allowance is 1.25 and no jump can exceed it
        rng = np.random.default_rng(shots)
        t = (DEFAULT_GRID.times() + rng.uniform(-0.03, 0.03, 64) if grid == "uneven"
             else make_grid(0.0, 6.3, float(grid)).times())
        allow = 5 * math.sqrt(0.25 / shots)
        files = []
        for k in range(24):
            alpha = rng.uniform(0.5, 0.98)
            model = NoiseModel(alpha, rng.uniform(0, 1 - alpha), rng.uniform(-3, 3),
                               rng.uniform(0.3, 2.5))
            ds = Dataset(t, shots, rng.binomial(shots, noisy_prob(model, t)))
            if k % 2:
                at, size = t[rng.integers(1, len(t))], rng.uniform(allow - 0.15, allow + 0.25)
                ds = inject_step(ds, at, -size if noisy_prob(model, at) > 0.5 else size)
            files.append(ds)
        verdicts = screen_rows(t, [ds.fractions() for ds in files],
                               [ds.shots for ds in files])
        assert list(verdicts) == [fitted_verdict(ds) for ds in files]
        assert all(verdicts) == (shots == 4)

    def test_clean_batch_makes_no_kernel_call(self, monkeypatch):
        verdicts, shapes = self.screen_and_count(self.demo_files(), monkeypatch)
        assert all(verdicts) and shapes == []

    def test_a_stepped_file_is_refined_alone(self, monkeypatch):
        files = self.demo_files()
        files.insert(1, inject_step(files[0], 4.0, 0.15))
        verdicts, shapes = self.screen_and_count(files, monkeypatch)
        assert shapes and all(shape == (1, 3) for shape in shapes)
        assert verdicts == tuple(fitted_verdict(ds) for ds in files)
        assert [bool(v) for v in verdicts] == [True, False, True, True]

    def test_a_jump_between_the_two_thresholds_is_refined_and_accepted(self,
                                                                       monkeypatch):
        ds = sample_dataset(DEMO_QUBITS[0], DEFAULT_GRID, 8192, seed=16)
        t, f, shots = ds.t, ds.fractions()[None], ds.shots[None]
        lo, hi = rabipi.estimate._brackets(t, f)
        least = lo - rabipi.estimate.optimize.DX * (hi - lo)
        jumps = np.abs(np.diff(f, axis=1))
        threshold = rabipi.estimate._jump_threshold
        assert (jumps > threshold(t, shots, least)).any()
        assert (jumps <= threshold(t, shots, np.array([fit_model(ds).c]))).all()
        verdicts, shapes = self.screen_and_count([ds], monkeypatch)
        assert verdicts == (ScreenVerdict(accepted=True),) and shapes


def reference_scan(t, f, step):
    """Reference for ``_scan``: each row's own ``_fit_at_rates`` call at all
    its 2n - 3 rates, and the first of their least RSS."""
    rates = step * np.arange(1, 2 * (len(t) - 1))
    return np.array([one_file(t, row, rates)[0].argmin() for row in f])


def scan_step(t):
    return math.pi / (2 * (t[-1] - t[0]))


def fit_bits_files():
    """The 48 files ``_FIT_BITS_CHILD`` fits."""
    for k in range(48):
        yield sample_dataset(NoiseModel(0.85, 0.08, 0.4 * k, 0.4 + 0.05 * k),
                             make_grid(0.0, 6.3, (0.1, 0.05)[k % 2]),
                             (256, 8192)[k // 2 % 2], seed=k)


def triage_stepped_files(seed=0):
    """The 12 stepped files of ``rabibench``'s ``triage`` workload at
    ``seed``: alpha 0.80-0.95, beta 0.02-0.05, a 0.15-0.25 step away from
    the nearer bound.  At seed 0, 7 of them fit with beta = 0 or
    alpha + beta = 1."""
    rng = random.Random(seed)
    steps = set(rng.sample(range(48), 12))
    for k in range(48):
        model = NoiseModel(rng.uniform(0.80, 0.95), rng.uniform(0.02, 0.05), 0.0, 1.0)
        ds = sample_dataset(model, DEFAULT_GRID, 8192, seed=rng.getrandbits(63))
        if k in steps:
            t_jump = rng.uniform(1.0, 5.5)
            sign = -1.0 if noisy_prob(model, t_jump) > 0.5 else 1.0
            yield inject_step(ds, t_jump, sign * rng.uniform(0.15, 0.25))


def edge_bound_files():
    """Files whose best curves have a level on the edge of [0, 1]: the
    ``triage`` stepped files, and the CI's k92 (top level at 1) and k46
    (lowest level at 0)."""
    yield from triage_stepped_files()
    yield sample_dataset(NoiseModel(0.8, 0.1, 0.0, 0.3), make_grid(0.0, 6.3, 0.05),
                         256, seed=92)
    yield sample_dataset(NoiseModel(0.8, 0.1, 2.0, 0.3), DEFAULT_GRID, 256, seed=46)


def with_gap(gap):
    """The times of ``DEFAULT_GRID`` with one more time ``gap`` after the
    60th, as a CSV may hold."""
    return np.insert(GRID_TIMES, 60, GRID_TIMES[59] + gap)


def ill_conditioned_gap_file():
    """A file on ``with_gap(1e-8)`` whose scan rate 126 step is ill
    conditioned but not collinear: its centred sin column is ≈3e-7 at the
    gap's time alone, so its unconstrained curve, r ≈ 1.5e5, leaves [0, 1]
    far, and that curve's RSS is only ≈2e-5 * sum y^2 above the best
    in-range rate's, 125 step."""
    t = with_gap(1e-8)
    n, step = len(t), scan_step(t)
    f = 0.5 + 0.45 * np.cos(125.55 * step * t) + 0.01 * np.sin(4 * np.arange(n) ** 2)
    return Dataset(t, 8192, np.round(f * 8192).astype(np.int64))


def scan_levels(t, f):
    """Whether each scan rate of the file ``f`` is collinear, k and r of its
    unconstrained curve and its RSS, from the kernel's columns as ``_scan``
    takes them: the unconstrained curve's, plus ``_edge``'s rise where a
    level leaves [0, 1], inf where collinear."""
    n = len(t)
    _, _, cc, ss, mean_cos, mean_sin, c2, s2, cs = rabipi.estimate._basis(
        scan_step(t) * np.arange(1, 2 * n - 2), t)
    mean_f = f.sum() / n
    y = f - mean_f
    yc, ys = (cc * y).sum(axis=1), (ss * y).sum(axis=1)
    collinear, u, v, k, r = rabipi.estimate._unconstrained(
        yc, ys, c2, s2, cs, mean_f, mean_cos, mean_sin)
    uy = u * yc + v * ys
    rss = (y * y).sum() + uy
    out = ((k - r < 0) | (k + r > 1)) & (r > 0)
    rss[out] += n * rabipi.estimate._edge(k[out], r[out], uy[out] / n, mean_f)[2]
    rss[collinear] = np.inf
    return collinear, k, r, rss


class TestScan:
    """``_scan`` picks, from sums over the kernel's columns, the rate the
    kernel's own scan picks, so the fit's search starts from the same
    bracket."""

    def test_picks_the_reference_rate(self, monkeypatch):
        datasets = [ds for _, ds in fit_corpus()] + list(fit_bits_files()) \
            + list(edge_bound_files()) + [ill_conditioned_gap_file()]
        for i, ds in enumerate(datasets):
            t, f = ds.times(), ds.fractions()[None]
            assert rabipi.estimate._scan(t, f, scan_step(t)) == \
                reference_scan(t, f, scan_step(t)), i
        # so the fit is the same bits with the reference scan in its place
        fits = [fit_model(ds) for ds in datasets]
        rows = [rabipi.estimate._fit_rows(t, f)
                for t, f, _, _ in TestBatchedFiles.batches(datasets)]
        monkeypatch.setattr(rabipi.estimate, "_scan", reference_scan)
        assert [fit_model(ds) for ds in datasets] == fits
        for (t, f, _, _), got in zip(TestBatchedFiles.batches(datasets), rows):
            for a, b in zip(got, rabipi.estimate._fit_rows(t, f)):
                assert a.tobytes() == b.tobytes()

    def test_rss_is_the_kernels(self):
        # the closed-form RSS of every scan rate, on an edge of [0, 1] too,
        # is the kernel's up to rounding
        datasets = [ds for _, ds in fit_corpus()] + list(edge_bound_files()) \
            + [ill_conditioned_gap_file()]
        refitted = 0
        for i, ds in enumerate(datasets):
            t, f = ds.times(), ds.fractions()
            _, k, r, rss = scan_levels(t, f)
            kernel = one_file(t, f, scan_step(t) * np.arange(1, 2 * len(t) - 2))[0]
            assert np.array_equal(np.isinf(rss), np.isinf(kernel)), i
            finite = ~np.isinf(kernel)
            yy = ((f - f.mean()) ** 2).sum()
            assert np.all(np.abs(rss - kernel)[finite] <= 1e-13 * yy), i
            refitted += np.count_nonzero(((k - r < 0) | (k + r > 1)) & (r > 0))
        assert refitted > 0

    def test_an_ill_conditioned_rate_out_of_range_loses(self):
        # its unconstrained curve leaves [0, 1] far, with a huge amplitude;
        # refitted on the edge, it still loses to the rate 125 step
        ds = ill_conditioned_gap_file()
        t, f = ds.times(), ds.fractions()
        collinear, k, r, _ = scan_levels(t, f)
        assert not collinear[125] and r[125] > 1e5 and k[125] + r[125] > 1
        best = rabipi.estimate._scan(t, f[None], scan_step(t))
        assert best.tolist() == [124]
        assert np.array_equal(best, reference_scan(t, f[None], scan_step(t)))

    @pytest.mark.parametrize("cells", [3, 40, 1000])
    def test_chunks_pick_the_rates_of_one_chunk(self, monkeypatch, cells):
        # batches and one file in chunks of 3 or 40 rates, or of all rates,
        # give the rates of one chunk
        groups = TestBatchedFiles.batches(
            [ds for i, ds in fit_corpus() if i % 4 == 0])
        whole = [rabipi.estimate._scan(t, f, scan_step(t)) for t, f, _, _ in groups]
        monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", cells * len(groups[0][0]))
        for (t, f, _, _), best in zip(groups, whole):
            assert np.array_equal(rabipi.estimate._scan(t, f, scan_step(t)), best)
            assert np.array_equal(rabipi.estimate._scan(t, f[:1], scan_step(t)),
                                  best[:1])

    @pytest.mark.parametrize("cells_per_time, files, gap", [
        (3, 20, 0.0), (None, 1, 1e-3), (None, 1, 1e-9)])
    def test_memory_held_by_the_cell_limit(self, monkeypatch, cells_per_time,
                                           files, gap):
        # no chunk holds more than _SCAN_CELLS (file, rate, time) cells, and
        # the scan covers 2n - 3 rates however close two times are (up to
        # pi / min dt, it would cover 2 * span / gap)
        t = with_gap(gap) if gap else GRID_TIMES
        f = np.array([sample_dataset(NoiseModel(0.8, 0.1, 0.2, 0.6 + 0.1 * k),
                                     make_grid(0.0, 6.3, 0.1), 8192, seed=k).fractions()
                      for k in range(files)])
        if gap:
            f = np.insert(f, 60, f[:, 59], axis=1)
        n = len(t)
        if cells_per_time:
            monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", cells_per_time * n)
        cells = rabipi.estimate._SCAN_CELLS
        tracemalloc.start()
        try:
            best = rabipi.estimate._scan(t, f, scan_step(t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few arrays of a chunk's cells, the (files, rates) RSS and copies
        # of the fractions
        assert peak <= 8 * 16 * min(cells, files * (2 * n - 3) * n) \
            + 8 * files * (2 * n - 3) + 4 * 8 * f.size
        assert np.array_equal(best, reference_scan(t, f, scan_step(t)))

    @pytest.mark.parametrize("gap", [1e-9, 1e-12])
    def test_collinear_rate_never_wins(self, gap):
        # at the rate 10 pi every knot but the one ``gap`` after t = 5.9 has
        # sin(ct) = 0 up to rounding, so the kernel's centred columns are
        # collinear there; the fractions follow cos(ct), which that rate
        # alone would fit exactly
        t = with_gap(gap)
        f = 0.5 + 0.4 * np.cos(10 * math.pi * t)
        step = scan_step(t)
        rates = step * np.arange(1, 2 * len(t) - 2)
        rss = one_file(t, f, rates)[0]
        assert np.flatnonzero(np.isinf(rss)).tolist() == [125]  # c = 126 step
        best = rabipi.estimate._scan(t, f[None], step)
        assert best[0] != 125
        assert np.array_equal(best, reference_scan(t, f[None], step))


class TestScanColumns:
    """``_columns`` builds a grid's scan columns once and keeps the last
    chunk, so every fit on one grid shares them; a fit must not depend on
    which grid's columns the cache holds."""

    #: The 0.1 grid, its times shifted by 0.05 (the same length and step)
    #: and the 0.05 grid.
    GRIDS = [make_grid(0.0, 6.3, 0.1), make_grid(0.05, 6.35, 0.1),
             make_grid(0.0, 6.3, 0.05)]

    @staticmethod
    def cold(call, *args):
        rabipi.estimate._columns.cache_clear()
        return call(*args)

    @classmethod
    def files(cls):
        """Twelve files on the three grids in turn, every 4th stepped."""
        for i in range(12):
            ds = sample_dataset(NoiseModel(0.85, 0.08, 0.3 * i, 0.5 + 0.2 * i),
                                cls.GRIDS[i % 3], (256, 8192)[i // 3 % 2], seed=i)
            yield inject_step(ds, 3.0, 0.15) if i % 4 == 0 else ds

    def test_alternating_grids_give_the_bits_of_a_cold_cache(self):
        files = list(self.files())
        bits = [[float(v).hex() for v in dataclasses.astuple(m)]
                for m in map(fit_model, files)]
        assert bits == [[float(v).hex() for v in dataclasses.astuple(
            self.cold(fit_model, ds))] for ds in files]
        assert [screen_dataset(ds) for ds in files] == \
            [self.cold(screen_dataset, ds) for ds in files]
        groups = [TestBatchedFiles.batches(files[g::3])[0] for g in range(3)]
        warm = [(screen_rows(t, f, shots), rabipi.estimate._fit_rows(t, f))
                for t, f, shots, _ in groups * 2]
        for (t, f, shots, _), (verdicts, rows) in zip(groups * 2, warm):
            assert self.cold(screen_rows, t, f, shots) == verdicts
            for a, b in zip(self.cold(rabipi.estimate._fit_rows, t, f), rows):
                assert a.tobytes() == b.tobytes()

    def test_a_time_one_ulp_off_gets_its_own_columns(self):
        t = GRID_TIMES
        nudged = t.copy()
        nudged[40] = np.nextafter(t[40], np.inf)
        step, count = scan_step(t), 2 * len(t) - 3
        assert scan_step(nudged) == step
        f = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0).fractions()[None]
        columns = rabipi.estimate._columns
        base = [a.copy() for a in self.cold(columns, t.tobytes(), step, 0, count)]
        rabipi.estimate._scan(t, f, step)
        rabipi.estimate._scan(nudged, f, step)
        held = [a.copy() for a in columns(nudged.tobytes(), step, 0, count)]
        fresh = self.cold(columns, nudged.tobytes(), step, 0, count)
        assert base[0].tobytes() != fresh[0].tobytes()
        for a, b in zip(held, fresh):
            assert a.tobytes() == b.tobytes()

    def test_columns_are_read_only(self):
        t = GRID_TIMES
        f = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=0).fractions()[None]
        rabipi.estimate._scan(t, f, scan_step(t))
        held = rabipi.estimate._columns(t.tobytes(), scan_step(t), 0, 2 * len(t) - 3)
        assert rabipi.estimate._columns.cache_info().currsize == 1
        for a in held:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("cells_per_time", [None, 5, 40])
    def test_cache_holds_at_most_one_chunk(self, monkeypatch, cells_per_time):
        # 631 times: 1259 rates in 4 chunks at the default cell limit
        t = make_grid(0.0, 6.3, 0.01).times()
        n = len(t)
        f = sample_dataset(IDEAL, make_grid(0.0, 6.3, 0.01), 8192, seed=0).fractions()
        if cells_per_time:
            monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", cells_per_time * n)
        cells = rabipi.estimate._SCAN_CELLS
        per = cells // n
        # the 0.1 grid's columns are held first; the long grid's replace them
        rabipi.estimate._scan(GRID_TIMES, f[None, :64], scan_step(GRID_TIMES))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            best = rabipi.estimate._scan(t, f[None], scan_step(t))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(best, reference_scan(t, f[None], scan_step(t)))
        assert rabipi.estimate._columns.cache_info().currsize == 1
        # one chunk's cc and ss columns, its sums per rate, the times' bytes
        # in the key and a little for the objects holding them
        assert held <= 16 * cells + 4 * 8 * per + 8 * n + 4096

    @pytest.mark.parametrize("files", [33, 200])
    def test_a_big_batch_finds_the_kept_columns(self, files):
        # the rates of a chunk do not depend on the number of files, so the
        # 125 rates of the 0.1 grid are one chunk for any batch
        f = np.array([sample_dataset(NoiseModel(0.8, 0.1, 0.2, 0.5 + 0.01 * k),
                                     DEFAULT_GRID, 8192, seed=k).fractions()
                      for k in range(files)])
        best = self.cold(rabipi.estimate._scan, GRID_TIMES, f, scan_step(GRID_TIMES))
        assert np.array_equal(rabipi.estimate._scan(GRID_TIMES, f, scan_step(GRID_TIMES)),
                              best)
        info = rabipi.estimate._columns.cache_info()
        assert (info.misses, info.hits > 0) == (1, True)

    @pytest.mark.parametrize("grid, cells_per_time", [
        (DEFAULT_GRID, None), (make_grid(0.0, 6.3, 0.01), 40)])
    def test_chunks_are_the_kernel_columns(self, monkeypatch, grid, cells_per_time):
        # every chunk the scan keeps is ``_basis`` at its own rates, and the
        # same rows of ``_basis`` at all the grid's rates
        t = grid.times()
        n, step = len(t), scan_step(t)
        if cells_per_time:
            monkeypatch.setattr(rabipi.estimate, "_SCAN_CELLS", cells_per_time * n)
        columns, chunks = rabipi.estimate._columns, []

        def kept(*key):
            chunks.append((key, columns(*key)))
            return chunks[-1][1]

        columns.cache_clear()
        monkeypatch.setattr(rabipi.estimate, "_columns", kept)
        f = sample_dataset(IDEAL, grid, 8192, seed=0).fractions()[None]
        rabipi.estimate._scan(t, f, step)
        assert sum(key[3] for key, _ in chunks) == 2 * n - 3
        whole = rabipi.estimate._basis(step * np.arange(1, 2 * n - 2), t)[2:]
        for (_, _, k0, count), (ccss, *sums) in chunks:
            own = rabipi.estimate._basis(step * np.arange(k0 + 1, k0 + count + 1), t)
            for a, b, c in zip([*ccss, *sums], own[2:], whole):
                assert a.tobytes() == b.tobytes() == c[k0:k0 + count].tobytes()


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
