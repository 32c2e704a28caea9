"""Synthetic shot-count datasets for the Rabi experiment.

Each dataset mimics one qubit: a grid of rotation times, a fixed number of
measurement shots per time, and the count of |1> outcomes drawn from a
binomial distribution with the model probability.  Sampling is reproducible:
one seed drives one generator, which draws every record of the dataset in
grid order with a single binomial call.  A record's count therefore depends
on the whole grid, not only on its own time; identical inputs still give
bit-identical datasets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import NoiseModel, noisy_prob

__all__ = [
    "TimeGrid",
    "ShotRecord",
    "Dataset",
    "DEFAULT_GRID",
    "DEFAULT_SHOTS",
    "make_grid",
    "sample_counts",
    "sample_dataset",
    "exact_dataset",
    "inject_step",
]

#: Shots per time instant used in the original experiment.
DEFAULT_SHOTS = 8192


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid {start, start+step, ...} up to stop (inclusive)."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)
                and math.isfinite(self.step)):
            raise ValueError("grid parameters must be finite")
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.stop <= self.start:
            raise ValueError(f"stop must exceed start, got [{self.start}, {self.stop}]")

    def times(self) -> np.ndarray:
        # Largest point <= stop + step/2; rounding strips float-accumulation
        # noise so grid times serialize as short decimals.
        n = int(math.floor((self.stop - self.start + self.step / 2) / self.step)) + 1
        return np.round(self.start + np.arange(n) * self.step, 12)

    def __len__(self) -> int:
        return len(self.times())


@dataclass(frozen=True)
class ShotRecord:
    """Measurement tally at one time instant."""

    t: float
    shots: int
    ones: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not 0 <= self.ones <= self.shots:
            raise ValueError(f"ones must be in [0, {self.shots}], got {self.ones}")

    @property
    def fraction(self) -> float:
        return self.ones / self.shots


@dataclass(frozen=True)
class Dataset:
    """Ordered shot records for one qubit."""

    records: tuple
    label: str = ""

    def __post_init__(self):
        recs = tuple(self.records)
        object.__setattr__(self, "records", recs)
        if len(recs) < 2:
            raise ValueError("dataset needs at least 2 records")
        ts = [r.t for r in recs]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("record times must be strictly increasing")

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def fractions(self) -> np.ndarray:
        return np.array([r.fraction for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


def make_grid(start: float = 0.0, stop: float = 6.3, step: float = 0.1) -> TimeGrid:
    """Build a uniform grid; defaults follow the experimental protocol."""
    return TimeGrid(start, stop, step)


DEFAULT_GRID = make_grid()


def _dataset(times: np.ndarray, shots: int, ones: np.ndarray, label: str) -> Dataset:
    return Dataset(records=tuple(
        ShotRecord(t=t, shots=shots, ones=k)
        for t, k in zip(times.tolist(), ones.tolist())), label=label)


def sample_counts(model: NoiseModel, grid: TimeGrid, shots: int,
                  seeds) -> np.ndarray:
    """Binomial |1> counts on ``grid``, one row per seed.

    Row r comes from one generator, ``default_rng(seeds[r] mod 2**64)``,
    drawing the whole grid in a single binomial call, so it equals the
    counts of ``sample_dataset(model, grid, shots, seed=seeds[r])``.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.clip(noisy_prob(model, grid.times()), 0.0, 1.0)
    counts = np.empty((len(seeds), len(p)), dtype=np.int64)
    for r, seed in enumerate(seeds):
        counts[r] = np.random.default_rng(int(seed) & (2**64 - 1)).binomial(shots, p)
    return counts


def sample_dataset(model: NoiseModel, grid: TimeGrid, shots: int = DEFAULT_SHOTS,
                   seed: int = 0, label: str = "") -> Dataset:
    """Draw a binomial shot count at every grid time.

    One generator seeded with ``seed`` draws all counts in grid order (see
    ``sample_counts``), so identical inputs always give bit-identical
    datasets.  Records are not independent of the grid they are drawn on:
    sampling a sub-grid gives different counts.
    """
    ones = sample_counts(model, grid, shots, [seed])[0]
    return _dataset(grid.times(), shots, ones, label)


def exact_dataset(model: NoiseModel, grid: TimeGrid, shots: int = 2**40,
                  label: str = "") -> Dataset:
    """Noise-free dataset: fractions equal model probabilities to ~5e-13.

    Uses a huge shot count so the integer tally represents the exact
    probability; convenient for checking the deterministic pipeline bias.
    """
    times = grid.times()
    ones = np.round(noisy_prob(model, times) * shots).astype(np.int64)
    return _dataset(times, shots, ones, label)


def inject_step(ds: Dataset, t_jump: float, offset: float) -> Dataset:
    """Shift all fractions at t >= t_jump by ``offset`` (clamped to [0, 1]).

    Models an abrupt calibration change between hardware jobs; used to
    exercise dataset screening.
    """
    ts = ds.times()
    if not ts[0] <= t_jump <= ts[-1]:
        raise ValueError(f"t_jump {t_jump} outside data range [{ts[0]}, {ts[-1]}]")
    records = []
    for r in ds.records:
        if r.t >= t_jump:
            ones = int(min(max(round(r.ones + offset * r.shots), 0), r.shots))
            records.append(ShotRecord(t=r.t, shots=r.shots, ones=ones))
        else:
            records.append(r)
    return Dataset(records=tuple(records), label=ds.label)
