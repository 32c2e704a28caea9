import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rabipi.model import (IDEAL, NoiseModel, analytic_half_crossings,
                          analytic_integral_reciprocal_c, ideal_prob,
                          noisy_prob)


class TestNoiseModel:
    def test_ideal_case_representable(self):
        m = NoiseModel(1.0, 0.0, 0.0, 1.0)
        assert m.is_normalized()

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=-0.1, beta=0.0, phi0=0.0, c=1.0),
        dict(alpha=0.5, beta=-0.01, phi0=0.0, c=1.0),
        dict(alpha=0.8, beta=0.3, phi0=0.0, c=1.0),   # alpha + beta > 1
        dict(alpha=1.0, beta=0.0, phi0=0.0, c=0.0),
        dict(alpha=1.0, beta=0.0, phi0=0.0, c=-1.0),
        dict(alpha=math.nan, beta=0.0, phi0=0.0, c=1.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)


class TestIdealProb:
    def test_ground_state_unrotated(self):
        assert ideal_prob(0.0) == 0.0

    def test_full_flip(self):
        assert ideal_prob(math.pi) == pytest.approx(1.0)

    def test_equal_superposition(self):
        assert ideal_prob(math.pi / 2) == pytest.approx(0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ideal_prob(math.inf)


class TestNoisyProb:
    def test_reduces_to_ideal(self):
        assert noisy_prob(IDEAL, math.pi) == pytest.approx(1.0)

    def test_maximum_is_alpha_plus_beta(self):
        m = NoiseModel(0.8, 0.1, 0.0, 1.0)
        assert noisy_prob(m, math.pi) == pytest.approx(0.9)

    def test_minimum_is_beta(self):
        m = NoiseModel(0.8, 0.1, 0.0, 1.0)
        assert noisy_prob(m, 0.0) == pytest.approx(0.1)

    def test_matches_ideal_on_grid(self):
        for t in np.linspace(0, 2 * math.pi, 1000):
            assert noisy_prob(IDEAL, float(t)) == ideal_prob(float(t))

    def test_array_matches_scalar(self):
        m = NoiseModel(0.8, 0.1, 0.3, 1.07)
        ts = np.linspace(-3, 9, 120).reshape(10, 12)
        probs = noisy_prob(m, ts)
        assert probs.shape == ts.shape
        assert all(p == noisy_prob(m, float(t))
                   for t, p in zip(ts.ravel(), probs.ravel()))
        assert isinstance(noisy_prob(m, 1.0), float)

    def test_array_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            noisy_prob(IDEAL, np.array([0.0, math.nan, 1.0]))

    @given(
        alpha=st.floats(0, 1),
        frac=st.floats(0, 1),
        phi0=st.floats(-10, 10),
        c=st.floats(0.01, 100),
        t=st.floats(-100, 100),
    )
    def test_bounds(self, alpha, frac, phi0, c, t):
        beta = (1 - alpha) * frac
        m = NoiseModel(alpha, beta, phi0, c)
        p = noisy_prob(m, t)
        assert 0 <= p <= 1
        assert m.beta - 1e-12 <= p <= m.alpha + m.beta + 1e-12

    @given(
        phi0=st.floats(-3, 3),
        c=st.floats(0.1, 10),
        t=st.floats(-20, 20),
    )
    def test_periodicity(self, phi0, c, t):
        m = NoiseModel(0.9, 0.05, phi0, c)
        assert abs(noisy_prob(m, t) - noisy_prob(m, t + 2 * math.pi / c)) < 1e-12


class TestAnalyticOracles:
    @pytest.mark.parametrize("c,phi0,expected", [
        (1.0, 0.0, (math.pi / 2, 3 * math.pi / 2)),
        (2.0, 0.0, (math.pi / 4, 3 * math.pi / 4)),
        (1.0, 0.2, (math.pi / 2 - 0.2, 3 * math.pi / 2 - 0.2)),
    ])
    def test_half_crossings(self, c, phi0, expected):
        t1, t2 = analytic_half_crossings(NoiseModel(1, 0, phi0, c))
        assert t1 == pytest.approx(expected[0])
        assert t2 == pytest.approx(expected[1])

    @pytest.mark.parametrize("c,phi0", [(0.5, 0.0), (1.0, 0.3), (2.0, -0.3)])
    def test_crossings_sit_at_half(self, c, phi0):
        m = NoiseModel(1, 0, phi0, c)
        t1, t2 = analytic_half_crossings(m)
        assert noisy_prob(m, t1) == pytest.approx(0.5, abs=1e-12)
        assert noisy_prob(m, t2) == pytest.approx(0.5, abs=1e-12)
        assert t2 - t1 == pytest.approx(math.pi / c)

    @pytest.mark.parametrize("c,expected", [(1.0, 1.0), (2.0, 0.5)])
    def test_integral_reciprocal(self, c, expected):
        assert analytic_integral_reciprocal_c(NoiseModel(1, 0, 0, c)) == expected

    def test_integral_phase_invariant(self):
        assert analytic_integral_reciprocal_c(NoiseModel(1, 0, 0.3, 1)) == 1.0

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("phi0", [-0.3, 0.0, 0.3])
    def test_integral_against_quadrature(self, c, phi0):
        # independent oracle: dense trapezoid quadrature at step 1e-5
        m = NoiseModel(1, 0, phi0, c)
        t1, t2 = analytic_half_crossings(m)
        tt = np.linspace(t1, t2, int(round((t2 - t1) / 1e-5)) + 1)
        vals = m.alpha * (1 - np.cos(m.c * tt + m.phi0)) / 2 + m.beta - 0.5
        quad = float(np.trapezoid(vals, tt))
        assert analytic_integral_reciprocal_c(m) == pytest.approx(quad, abs=1e-8)

    def test_restricted_to_normalized_curve(self):
        m = NoiseModel(0.9, 0.05, 0, 1)
        with pytest.raises(ValueError):
            analytic_half_crossings(m)
        with pytest.raises(ValueError):
            analytic_integral_reciprocal_c(m)
