import math

import numpy as np
import pytest

from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.simulate import (DEFAULT_GRID, Dataset, ShotRecord, exact_dataset,
                             inject_step, make_grid, sample_counts,
                             sample_dataset)


class TestMakeGrid:
    def test_default_protocol_grid(self):
        times = make_grid(0, 6.3, 0.1).times()
        assert len(times) == 64
        assert times[0] == 0.0
        assert times[-1] == 6.3

    def test_small_grid(self):
        assert list(make_grid(0, 1, 0.5).times()) == [0.0, 0.5, 1.0]

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0, 1, -0.1)

    def test_stop_before_start_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, 0, 0.1)


class TestRecordsAndDataset:
    def test_ones_bounds_enforced(self):
        with pytest.raises(ValueError):
            ShotRecord(t=0.0, shots=10, ones=11)
        with pytest.raises(ValueError):
            ShotRecord(t=0.0, shots=0, ones=0)

    def test_times_must_increase(self):
        r = ShotRecord(t=0.2, shots=8, ones=1)
        with pytest.raises(ValueError):
            Dataset(records=(r, ShotRecord(t=0.1, shots=8, ones=1)))

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            Dataset(records=(ShotRecord(t=0.0, shots=8, ones=1),))


class TestSampleDataset:
    def test_deterministic(self):
        a = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=42)
        b = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=42)
        assert a == b

    def test_seed_sensitivity(self):
        # distinct seeds must disagree somewhere, over 100 seed pairs
        for seed in range(100):
            a = sample_dataset(IDEAL, DEFAULT_GRID, 1024, seed=2 * seed)
            b = sample_dataset(IDEAL, DEFAULT_GRID, 1024, seed=2 * seed + 1)
            assert a != b

    def test_p_zero_is_deterministic(self):
        for seed in (0, 1, 999):
            ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=seed)
            assert ds.records[0].ones == 0  # ideal p(0) = 0

    def test_near_pi_fraction_close_to_one(self):
        # grid point 3.1 has p > 0.999; f > 0.99 except with prob < 1e-3
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=3)
        i = int(np.argmin(np.abs(ds.times() - 3.1)))
        assert ds.records[i].fraction > 0.99

    def test_binomial_mean_and_std_at_half(self):
        # p(0) = 0.5 when phi0 = pi/2; binomial mean 4096, sigma 45.25
        m = NoiseModel(1, 0, math.pi / 2, 1)
        grid = make_grid(0, 0.1, 0.1)
        ones = [sample_dataset(m, grid, 8192, seed=s).records[0].ones
                for s in range(1000)]
        assert abs(np.mean(ones) - 4096) < 5
        assert abs(np.std(ones, ddof=1) - 45.25) < 3

    def test_law_of_large_numbers(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 10**6, seed=11)
        probs = np.array([noisy_prob(IDEAL, r.t) for r in ds.records])
        assert np.max(np.abs(ds.fractions() - probs)) < 0.005

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_dataset(IDEAL, DEFAULT_GRID, 0, seed=0)

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**64 + 5])
    def test_one_generator_per_dataset(self, seed):
        # stream contract: one default_rng(seed mod 2**64) draws the whole
        # grid with a single binomial call
        m = NoiseModel(0.9, 0.05, 0.1, 1.02)
        ds = sample_dataset(m, DEFAULT_GRID, 8192, seed=seed)
        p = noisy_prob(m, DEFAULT_GRID.times())
        expected = np.random.default_rng(seed % 2**64).binomial(8192, p)
        assert [r.ones for r in ds.records] == expected.tolist()


class TestSampleCounts:
    def test_rows_equal_sample_dataset(self):
        m = NoiseModel(0.85, 0.08, 0.0, 1.0)
        seeds = [3, 99, 2**63 + 1]
        counts = sample_counts(m, DEFAULT_GRID, 512, seeds)
        assert counts.shape == (3, len(DEFAULT_GRID))
        for row, seed in zip(counts, seeds):
            ds = sample_dataset(m, DEFAULT_GRID, 512, seed=seed)
            assert row.tolist() == [r.ones for r in ds.records]

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_counts(IDEAL, DEFAULT_GRID, 0, [1])


class TestExactDataset:
    def test_fractions_match_probabilities(self):
        ds = exact_dataset(IDEAL, DEFAULT_GRID)
        probs = np.array([noisy_prob(IDEAL, r.t) for r in ds.records])
        assert np.max(np.abs(ds.fractions() - probs)) < 1e-12

    def test_counts_are_rounded_scalar_probabilities(self):
        m = NoiseModel(0.8, 0.1, 0.2, 1.05)
        ds = exact_dataset(m, DEFAULT_GRID, shots=10**6)
        assert [r.ones for r in ds.records] == [
            round(noisy_prob(m, r.t) * 10**6) for r in ds.records]


class TestInjectStep:
    def test_zero_offset_is_identity(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=5)
        assert inject_step(ds, 4.0, 0.0) == ds

    def test_fractions_shift_after_jump(self):
        ds = exact_dataset(IDEAL, DEFAULT_GRID, shots=10**6)
        shifted = inject_step(ds, 4.0, 0.15)
        for old, new in zip(ds.records, shifted.records):
            if old.t >= 4.0 and old.fraction + 0.15 <= 1.0:
                assert new.fraction == pytest.approx(old.fraction + 0.15, abs=1e-6)
            elif old.t < 4.0:
                assert new == old

    def test_clamped_at_shots(self):
        recs = (ShotRecord(t=0.0, shots=100, ones=10),
                ShotRecord(t=1.0, shots=100, ones=90))
        out = inject_step(Dataset(records=recs), 1.0, 1.0)
        assert out.records[1].ones == 100

    def test_jump_outside_range_rejected(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 128, seed=0)
        with pytest.raises(ValueError):
            inject_step(ds, 99.0, 0.1)
