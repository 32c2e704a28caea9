import itertools
import math
import re

import numpy as np
import pytest

from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.simulate import (DEFAULT_GRID, Dataset, exact_dataset, inject_step,
                             make_grid, sample_counts, sample_dataset)


class TestMakeGrid:
    def test_default_protocol_grid(self):
        times = make_grid(0, 6.3, 0.1).times()
        assert len(times) == 64
        assert times[0] == 0.0
        assert times[-1] == 6.3

    def test_small_grid(self):
        assert list(make_grid(0, 1, 0.5).times()) == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("start, stop, step, last", [
        (0.0, 1.0, 0.6, 0.6), (0.0, 6.3, 0.4, 6.0)])
    def test_no_time_past_stop(self, start, stop, step, last):
        # stop is not on these grids: the last time is the one below it
        assert make_grid(start, stop, step).times()[-1] == last

    def test_times_built_once_and_read_only(self):
        grid = make_grid(0, 6.3, 0.1)
        times = grid.times()
        assert grid.times() is times and len(grid) == 64
        with pytest.raises(ValueError, match="read-only"):
            times[0] = 1.0
        # the cached times take no part in == and hash
        other = make_grid(0, 6.3, 0.1)
        assert other == grid and hash(other) == hash(grid)
        assert {grid: 1}[other] == 1
        assert make_grid(0, 6.3, 0.05) != grid

    @pytest.mark.parametrize("start, stop, step", [
        (math.nan, 1.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.nan)])
    def test_non_finite_parameter_rejected(self, start, stop, step):
        with pytest.raises(ValueError, match="grid parameters must be finite"):
            make_grid(start, stop, step)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0, 1, -0.1)

    def test_stop_before_start_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, 0, 0.1)

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 6.3, 0.1), (0.0, 6.3, 0.05), (0.0, 6.3, 0.2),
        (0.0, 6.3e-9, 1e-10), (1e6, 1e6 + 6.3, 0.1)])
    def test_grid_whose_rounded_times_keep_the_step_accepted(self, start, stop,
                                                            step):
        times = make_grid(start, stop, step).times()
        np.testing.assert_allclose(np.diff(times), step, rtol=1e-6)

    @pytest.mark.parametrize("stop, step", [
        (3e-11, 1.5e-12), (6.3e-9, 1e-10 / 3), (4e-12, 1e-13)])
    def test_grid_too_fine_for_the_rounding_rejected(self, stop, step):
        # rounding to 12 decimals would give steps of 1 and 2e-12, steps 3%
        # apart, and repeated times
        with pytest.raises(ValueError, match="rounded to 12 decimals"):
            make_grid(0.0, stop, step)


def one_check_at_a_time(t, shots, ones):
    """Reference for the checks of ``Dataset``: each rule tested on its own,
    in order, on the full columns.  Returns the message of the first rule the
    columns break, or None."""
    t = np.array(t, dtype=np.float64)
    ones = np.array(ones, dtype=np.int64)
    shots = np.array(np.broadcast_to(np.array(shots, dtype=np.int64), t.shape))
    if (shots < 1).any():
        return f"shots must be >= 1, got {shots[shots < 1][0]}"
    bad = np.flatnonzero((ones < 0) | (ones > shots))
    if len(bad):
        return f"ones must be in [0, {shots[bad[0]]}], got {ones[bad[0]]}"
    if len(t) < 2:
        return "dataset needs at least 2 records"
    if not np.isfinite(t).all():
        return "record times must be finite"
    if (np.diff(t) <= 0).any():
        return "record times must be strictly increasing"
    return None


FAULTS = ("shots", "ones", "short", "non-finite", "order")


def faulty_columns(rng, faults, scalar_shots):
    """Columns of a dataset with each of ``faults`` put in at random rows."""
    n = int(rng.integers(0, 2)) if "short" in faults else int(rng.integers(2, 9))
    t = np.cumsum(rng.uniform(0.05, 0.2, n))
    shots = np.full(n, int(rng.integers(1, 9)))
    ones = rng.integers(0, shots + 1)

    def rows():
        return rng.choice(n, int(rng.integers(1, n + 1)), replace=False)

    if n and "shots" in faults:
        shots[rows()] = rng.integers(-3, 1)
    if n and "ones" in faults:
        i = rows()
        ones[i] = np.where(rng.random(len(i)) < 0.5, -rng.integers(1, 4, len(i)),
                           shots[i] + rng.integers(1, 4, len(i)))
    if n and "non-finite" in faults:
        t[rows()] = rng.choice([math.nan, math.inf, -math.inf])
    if n > 1 and "order" in faults:
        i = int(rng.integers(1, n))
        t[i] = t[i - 1] - rng.choice([0.0, 0.05])
    if scalar_shots:
        shots = int(rng.integers(-3, 1)) if "shots" in faults else int(shots[0] if n else 8)
    return t, shots, ones


class TestRecordsAndDataset:
    def test_ones_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"ones must be in \[0, 10\], got 11"):
            Dataset([0.0, 1.0], 10, [5, 11])
        with pytest.raises(ValueError, match=r"ones must be in \[0, 10\], got -1"):
            Dataset([0.0, 1.0], 10, [-1, 5])
        with pytest.raises(ValueError, match="shots must be >= 1, got 0"):
            Dataset([0.0, 1.0], [8, 0], [0, 0])

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Dataset([0.2, 0.1], 8, [1, 1])
        with pytest.raises(ValueError, match="strictly increasing"):
            Dataset([0.1, 0.1], 8, [1, 1])

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="at least 2 records"):
            Dataset([0.0], 8, [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_times_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Dataset([0.0, 1.0, bad], 8, [1, 1, 1])

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            Dataset([0.0, 1.0, 2.0], 8, [1, 1])
        # shots is checked before it is broadcast to the times
        for shots in ([8, 8], [[8, 8, 8]]):
            with pytest.raises(ValueError,
                               match="columns must be 1-d and of equal length"):
                Dataset([0.0, 1.0, 2.0], shots, [1, 1, 1])

    @pytest.mark.parametrize("shots, ones, message", [
        (8.7, [1, 2], "shots must be finite whole numbers, got 8.7"),
        (8, [1.5, 2], "ones must be finite whole numbers, got 1.5"),
        (8, [1, math.nan], "ones must be finite whole numbers, got nan"),
        ([8, math.inf], [1, 2], "shots must be finite whole numbers, got inf"),
        (np.uint64(2**63), [1, 1], "shots and ones must fit in int64"),
        ((8, 2**63), [1, 1], "shots and ones must fit in int64"),
        (8, [1, 2**64], "shots and ones must fit in int64"),
        (8.0, [1.0, 2.0**63], "shots and ones must fit in int64")])
    def test_counts_must_be_whole_int64_values(self, shots, ones, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset([0.0, 0.1], shots, ones)

    @pytest.mark.parametrize("scalar_shots", [False, True], ids=["column", "scalar"])
    @pytest.mark.parametrize("faults", [
        c for k in (0, 1, 2, 3) for c in itertools.combinations(FAULTS, k)],
        ids=lambda faults: "+".join(faults) or "none")
    def test_first_broken_rule_named_as_one_check_at_a_time(self, faults,
                                                           scalar_shots):
        rng = np.random.default_rng([len(faults), *map(FAULTS.index, faults),
                                     scalar_shots])
        for _ in range(20):
            t, shots, ones = faulty_columns(rng, faults, scalar_shots)
            message = one_check_at_a_time(t, shots, ones)
            assert (message is None) == (not faults)
            if message is None:
                assert Dataset(t, shots, ones).shots.tolist() == \
                    np.broadcast_to(shots, t.shape).tolist()
                continue
            with pytest.raises(ValueError) as e:
                Dataset(t, shots, ones)
            assert type(e.value) is ValueError and str(e.value) == message

    @pytest.mark.parametrize("shots", [8, np.int64(8), np.array(8), 8.0])
    def test_scalar_shots_become_a_fresh_column(self, shots):
        ds = Dataset([0.0, 0.1, 0.2], shots, [1, 2, 3])
        assert ds.shots.dtype == np.int64 and ds.shots.tolist() == [8, 8, 8]
        assert ds.shots.flags.owndata and not ds.shots.flags.writeable
        assert not np.shares_memory(ds.shots, shots)

    def test_whole_float_counts_accepted(self):
        ds = Dataset([0.0, 0.1], 8.0, np.array([1.0, 2.0]))
        assert ds.shots.dtype == ds.ones.dtype == np.int64
        assert ds == Dataset([0.0, 0.1], 8, [1, 2])
        ds = Dataset([0.0, 0.1], [2**62, 2**63 - 1], np.array([2**62, 0], dtype=np.uint64))
        assert ds.shots.tolist() == [2**62, 2**63 - 1] and ds.ones.tolist() == [2**62, 0]

    def test_columns(self):
        ds = Dataset([0.0, 1.0], 1000, [100, 900], "q")
        assert ds.t.dtype == np.float64 and ds.t.tolist() == [0.0, 1.0]
        assert ds.shots.dtype == np.int64 and ds.shots.tolist() == [1000, 1000]
        assert ds.ones.dtype == np.int64 and ds.ones.tolist() == [100, 900]
        assert ds.times() is ds.t
        assert ds.fractions().tolist() == [0.1, 0.9]
        assert len(ds) == 2

    def test_columns_are_read_only(self):
        t, ones = np.array([0.0, 1.0]), np.array([100, 900])
        ds = Dataset(t, 1000, ones)
        for col in (ds.t, ds.shots, ds.ones):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1
        with pytest.raises(AttributeError):
            ds.ones = ones
        # the caller's arrays are copied, so changing them leaves ds as it was
        t[0], ones[0] = -1.0, 0
        assert ds == Dataset([0.0, 1.0], 1000, [100, 900])

    def test_equality_by_value(self):
        ds = Dataset([0.0, 1.0], 1000, [100, 900], "q")
        assert ds == Dataset(np.array([0.0, 1.0]), [1000, 1000], (100, 900), "q")
        assert ds != Dataset([0.0, 1.0], 1000, [100, 900], "r")
        assert ds != Dataset([0.0, 1.0], 1000, [100, 901], "q")
        assert ds != Dataset([0.0, 1.0], [1000, 1001], [100, 900], "q")
        assert ds != Dataset([0.0, 1.5], 1000, [100, 900], "q")
        assert ds != Dataset([0.0, 1.0, 2.0], 1000, [100, 900, 0], "q")
        assert ds != "q"
        with pytest.raises(TypeError):
            hash(ds)


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
            assert ds.ones[0] == 0  # ideal p(0) = 0

    def test_near_pi_fraction_close_to_one(self):
        # grid point 3.1 has p > 0.999; f > 0.99 except with prob < 1e-3
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=3)
        i = int(np.argmin(np.abs(ds.times() - 3.1)))
        assert ds.fractions()[i] > 0.99

    def test_binomial_mean_and_std_at_half(self):
        # p(0) = 0.5 when phi0 = pi/2; binomial mean 4096, sigma 45.25
        m = NoiseModel(1, 0, math.pi / 2, 1)
        grid = make_grid(0, 0.1, 0.1)
        ones = [sample_dataset(m, grid, 8192, seed=s).ones[0] for s in range(1000)]
        assert abs(np.mean(ones) - 4096) < 5
        assert abs(np.std(ones, ddof=1) - 45.25) < 3

    def test_law_of_large_numbers(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 10**6, seed=11)
        probs = np.array([noisy_prob(IDEAL, t) for t in ds.t])
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
        assert ds.ones.tolist() == expected.tolist()
        assert ds.shots.tolist() == [8192] * len(DEFAULT_GRID)


class TestSampleCounts:
    def test_rows_equal_sample_dataset(self):
        # row 0 of a block is the one-dataset stream of the same seed
        m = NoiseModel(0.85, 0.08, 0.0, 1.0)
        for seed in [0, 7, -3, 2**64 + 5]:
            counts = sample_counts(m, DEFAULT_GRID, 512, seed, 4)
            assert counts.shape == (4, len(DEFAULT_GRID))
            ds = sample_dataset(m, DEFAULT_GRID, 512, seed=seed)
            assert counts[0].tolist() == ds.ones.tolist()

    def test_one_generator_per_block(self):
        # stream contract: one default_rng(seed mod 2**64) draws the whole
        # block with a single binomial call
        m = NoiseModel(0.9, 0.05, 0.1, 1.02)
        p = noisy_prob(m, DEFAULT_GRID.times())
        expected = np.random.default_rng(2**63 + 1).binomial(
            256, p, size=(50, len(p)))
        assert np.array_equal(
            sample_counts(m, DEFAULT_GRID, 256, 2**63 + 1, 50), expected)

    def test_rows_do_not_depend_on_runs(self):
        m = NoiseModel(0.9, 0.05, 0.0, 1.0)
        grid = make_grid(0.0, 6.3, 0.05)
        longest = sample_counts(m, grid, 256, 11, 30)
        for runs in (1, 2, 7, 29):
            assert np.array_equal(sample_counts(m, grid, 256, 11, runs),
                                  longest[:runs])

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_counts(IDEAL, DEFAULT_GRID, 0, 1, 2)

    @pytest.mark.parametrize("shots", [1.5, 256.0, np.float64(2.5)])
    def test_shots_that_are_not_integers_rejected(self, shots):
        # binomial would truncate 1.5 shots to 1
        with pytest.raises(ValueError, match=f"shots must be an integer, got {shots}"):
            sample_counts(IDEAL, DEFAULT_GRID, shots, 1, 2)

    def test_numpy_integer_shots(self):
        assert np.array_equal(sample_counts(IDEAL, DEFAULT_GRID, np.int32(256), 1, 2),
                              sample_counts(IDEAL, DEFAULT_GRID, 256, 1, 2))


class TestExactDataset:
    def test_fractions_match_probabilities(self):
        ds = exact_dataset(IDEAL, DEFAULT_GRID)
        probs = np.array([noisy_prob(IDEAL, t) for t in ds.t])
        assert np.max(np.abs(ds.fractions() - probs)) < 1e-12

    def test_counts_are_rounded_scalar_probabilities(self):
        m = NoiseModel(0.8, 0.1, 0.2, 1.05)
        ds = exact_dataset(m, DEFAULT_GRID, shots=10**6)
        assert ds.ones.tolist() == [round(noisy_prob(m, t) * 10**6) for t in ds.t]


class TestInjectStep:
    def test_zero_offset_is_identity(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=5)
        assert inject_step(ds, 4.0, 0.0) == ds

    def test_fractions_shift_after_jump(self):
        ds = exact_dataset(IDEAL, DEFAULT_GRID, shots=10**6)
        shifted = inject_step(ds, 4.0, 0.15)
        assert np.array_equal(shifted.t, ds.t) and np.array_equal(shifted.shots, ds.shots)
        for t, old, new, k_old, k_new in zip(ds.t, ds.fractions(), shifted.fractions(),
                                             ds.ones, shifted.ones):
            if t >= 4.0 and old + 0.15 <= 1.0:
                assert new == pytest.approx(old + 0.15, abs=1e-6)
            elif t < 4.0:
                assert k_new == k_old

    def test_clamped_at_shots(self):
        out = inject_step(Dataset([0.0, 1.0], 100, [10, 90]), 1.0, 1.0)
        assert out.ones.tolist() == [10, 100]
        out = inject_step(Dataset([0.0, 1.0], 100, [10, 90]), 0.0, -1.0)
        assert out.ones.tolist() == [0, 0]

    def test_rounds_half_to_even(self):
        # ones + offset * shots lands on k + 1/2 at every shifted row; the
        # counts are those Python's round() gave row by row
        ds = Dataset([0.0, 1.0, 2.0, 3.0, 4.0], 4, [3, 0, 1, 2, 3], "q")
        assert inject_step(ds, 1.0, 0.125).ones.tolist() == [3, 0, 2, 2, 4]
        assert inject_step(ds, 1.0, -0.125).ones.tolist() == [3, 0, 0, 2, 2]
        assert inject_step(ds, 1.0, 0.125).label == "q"

    @pytest.mark.parametrize("offset", [0.15, -0.2, 0.005, 0.5 / 8192, 1.0, -1.0])
    def test_matches_row_by_row_rounding(self, offset):
        # reference: Python's round() and clamp, one row at a time
        for ds in (sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=5),
                   exact_dataset(NoiseModel(0.8, 0.1, 0.2, 1.05), DEFAULT_GRID)):
            expected = [int(min(max(round(k + offset * n), 0), n)) if t >= 4.0 else k
                        for t, n, k in zip(ds.t.tolist(), ds.shots.tolist(),
                                           ds.ones.tolist())]
            assert inject_step(ds, 4.0, offset).ones.tolist() == expected

    def test_jump_outside_range_rejected(self):
        ds = sample_dataset(IDEAL, DEFAULT_GRID, 128, seed=0)
        with pytest.raises(ValueError):
            inject_step(ds, 99.0, 0.1)
