"""Synthetic shot-count datasets for the Rabi experiment.

Each dataset mimics one qubit: a grid of rotation times, a fixed number of
measurement shots per time, and the count of |1> outcomes drawn from a
binomial distribution with the model probability.  Sampling is reproducible:
one seed drives one generator, which draws every row of the dataset in
grid order with a single binomial call; a block of datasets is the same
stream continued row after row.  A row's count therefore depends on the
whole grid, not only on its own time; identical inputs still give
bit-identical datasets.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .model import NoiseModel, noisy_prob

__all__ = [
    "TimeGrid",
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
    """Uniform time grid {start, start+step, ...} up to stop (inclusive).

    The times are computed once, when the grid is built, and ``times()``
    returns that read-only array; ``==`` and ``hash`` compare only
    ``start``, ``stop`` and ``step``.
    """

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
        # The last point is the largest at or below stop, up to the rounding
        # of the quotient; rounding the times strips float-accumulation
        # noise so grid times serialize as short decimals.
        n = int(math.floor((self.stop - self.start) / self.step * (1 + 1e-12))) + 1
        times = np.round(self.start + np.arange(n) * self.step, 12)
        if np.any(np.abs(np.diff(times) - self.step) > 1e-6 * self.step):
            raise ValueError(f"step {self.step} is too fine for grid times rounded "
                             f"to 12 decimals: the rounded steps differ from it by "
                             f"more than 1e-6 of it")
        times.flags.writeable = False
        object.__setattr__(self, "_times", times)  # not a field: eq and hash skip it

    def times(self) -> np.ndarray:
        return self._times

    def __len__(self) -> int:
        return len(self._times)


def _counts(name: str, values) -> np.ndarray:
    """``values`` as a new int64 array; raises ``ValueError`` unless each is
    a finite whole number that int64 holds."""
    a = np.asarray(values)
    if a.dtype.kind in "biu":
        if a.dtype == np.uint64 and (a > np.iinfo(np.int64).max).any():
            raise ValueError("shots and ones must fit in int64")
        return a.astype(np.int64)
    try:
        x = a.astype(np.float64)  # Python ints beyond int64 arrive as float or object
    except OverflowError:
        raise ValueError("shots and ones must fit in int64") from None
    bad = np.flatnonzero(~np.isfinite(x) | (x != np.trunc(x)))
    if len(bad):
        raise ValueError(f"{name} must be finite whole numbers, got {x.flat[bad[0]]}")
    if ((x < -2.0 ** 63) | (x >= 2.0 ** 63)).any():
        raise ValueError("shots and ones must fit in int64")
    return x.astype(np.int64)


def _reject(t: np.ndarray, shots: np.ndarray, ones: np.ndarray):
    """Raise the ``ValueError`` of the first check a dataset's columns fail;
    called only once they are known to fail one."""
    if (shots < 1).any():
        raise ValueError(f"shots must be >= 1, got {shots[shots < 1][0]}")
    bad = np.flatnonzero((ones < 0) | (ones > shots))
    if len(bad):
        raise ValueError(f"ones must be in [0, {shots[bad[0]]}], got {ones[bad[0]]}")
    if len(t) < 2:
        raise ValueError("dataset needs at least 2 records")
    if not np.isfinite(t).all():
        raise ValueError("record times must be finite")
    raise ValueError("record times must be strictly increasing")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Shot counts for one qubit: ``ones[i]`` of ``shots[i]`` measurements at
    time ``t[i]`` gave |1>.  The columns are read-only float64 (``t``) and int64
    copies of the inputs; a scalar ``shots`` becomes a new column that repeats
    it on every row.  The columns are checked in one pass (every
    ``shots >= 1``, every ``0 <= ones <= shots``, at least 2 times, finite and
    strictly increasing); only a dataset that fails is checked again, one rule
    at a time in that order, to name the first rule it breaks.  ``==``
    compares the label and the columns by value; a dataset is not hashable."""

    t: np.ndarray
    shots: np.ndarray
    ones: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.array(self.t, dtype=np.float64)
        shots = _counts("shots", self.shots)
        ones = _counts("ones", self.ones)
        if t.ndim != 1 or ones.shape != t.shape or shots.shape not in ((), t.shape):
            raise ValueError(f"columns must be 1-d and of equal length, got t {t.shape}, "
                             f"shots {shots.shape}, ones {ones.shape}")
        if shots.ndim == 0:
            shots = np.full(t.shape, shots)
        if not (len(t) >= 2 and ((shots >= 1) & (ones >= 0) & (ones <= shots)).all()
                and np.isfinite(t).all() and (t[1:] > t[:-1]).all()):
            _reject(t, shots, ones)
        for name, col in (("t", t), ("shots", shots), ("ones", ones)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.label == other.label and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("t", "shots", "ones"))

    def times(self) -> np.ndarray:
        return self.t

    def fractions(self) -> np.ndarray:
        return self.ones / self.shots

    def __len__(self) -> int:
        return len(self.t)


def make_grid(start: float = 0.0, stop: float = 6.3, step: float = 0.1) -> TimeGrid:
    """Build a uniform grid; defaults follow the experimental protocol."""
    return TimeGrid(start, stop, step)


DEFAULT_GRID = make_grid()


def sample_counts(model: NoiseModel, grid: TimeGrid, shots: int, seed: int,
                  runs: int) -> np.ndarray:
    """Binomial |1> counts on ``grid``: ``runs`` rows from one generator.

    One generator, ``default_rng(seed mod 2**64)``, draws the whole
    (runs, len(grid)) matrix in a single binomial call.  It fills the rows in
    C order, so row r does not depend on ``runs``, and row 0 equals the
    counts of ``sample_dataset(model, grid, shots, seed=seed)``.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.clip(noisy_prob(model, grid.times()), 0.0, 1.0)
    return default_rng(int(seed) & (2**64 - 1)).binomial(shots, p, size=(runs, len(p)))


def sample_dataset(model: NoiseModel, grid: TimeGrid, shots: int = DEFAULT_SHOTS,
                   seed: int = 0, label: str = "") -> Dataset:
    """Draw a binomial shot count at every grid time.

    The counts are ``sample_counts(model, grid, shots, seed, 1)[0]``: one
    generator seeded with ``seed`` draws them all in grid order, so identical
    inputs always give bit-identical datasets.  Rows are not independent
    of the grid they are drawn on: sampling a sub-grid gives different counts.
    """
    return Dataset(grid.times(), shots, sample_counts(model, grid, shots, seed, 1)[0],
                   label)


def exact_dataset(model: NoiseModel, grid: TimeGrid, shots: int = 2**40,
                  label: str = "") -> Dataset:
    """Noise-free dataset: fractions equal model probabilities to ~5e-13.

    Uses a huge shot count so the integer tally represents the exact
    probability; convenient for checking the deterministic pipeline bias.
    """
    times = grid.times()
    return Dataset(times, shots, np.round(noisy_prob(model, times) * shots), label)


def inject_step(ds: Dataset, t_jump: float, offset: float) -> Dataset:
    """Shift all fractions at t >= t_jump by ``offset`` (clamped to [0, 1]).

    Models an abrupt calibration change between hardware jobs; used to
    exercise dataset screening.
    """
    t = ds.t
    if not t[0] <= t_jump <= t[-1]:
        raise ValueError(f"t_jump {t_jump} outside data range [{t[0]}, {t[-1]}]")
    shifted = np.clip(np.round(ds.ones + offset * ds.shots), 0, ds.shots)
    return Dataset(t, ds.shots, np.where(t >= t_jump, shifted, ds.ones), ds.label)
