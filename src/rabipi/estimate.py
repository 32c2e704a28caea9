"""The nine-step pi-estimation pipeline on sampled Rabi data.

Given measured |1> fractions f(t) over roughly one oscillation period, the
pipeline estimates pi as (t2 - t1) / I where t1, t2 are the half-level
crossings of the normalized curve and I is the trapezoidal integral of
(f1 - 1/2) between them:

  1. rough amplitude/offset from min/max of f
  2. normalize f to [0, 1]
  3. linear interpolation between grid points
  4. t1 and t2 are the rising and the falling end of the longest run of
     the interpolant at or above 1/2, each solved exactly on its segment; a
     row fails here when that run is cut off by either end of the data
  5. refine amplitude/offset from plateau averages within DELTA of the
     extrema
  6. re-normalize with the refined constants
  7. refine each crossing with a least-squares line through the knots
     within REFINE_WINDOW of it; a refined crossing outside the data range
     fails here
  8. trapezoidal integral of the normalized curve minus 1/2
  9. pi_hat = (t2 - t1) / I

LEVEL = 1/2, DELTA and REFINE_WINDOW are constants, not options, so the
Monte Carlo error bar of ``run_mc`` always describes the printed estimator.

Every step works row-wise on a 2-D array of fractions, one row per dataset.
``estimate_rows`` runs the pipeline on such a batch and records, per row,
the first step that failed; ``estimate_pi`` and the public step functions
run the same code on a single row and raise that step's ``PipelineError``.
``find_crossing`` picks, from the run ends that step 4 solves, the one
nearest a given start.

Also provides the full four-parameter curve fit used for plotting and a
screener that rejects datasets with calibration jumps.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import optimize
from .model import NoiseModel
from .simulate import Dataset

__all__ = [
    "LEVEL",
    "DELTA",
    "REFINE_WINDOW",
    "EstimateResult",
    "RowEstimates",
    "NormalizedCurve",
    "ScreenVerdict",
    "PipelineError",
    "rough_alpha_beta",
    "normalize",
    "interpolate",
    "find_crossing",
    "refine_alpha_beta",
    "refine_crossing_linear",
    "trapezoid_integral",
    "estimate_rows",
    "estimate_pi",
    "fit_model",
    "screen_dataset",
]


class PipelineError(ValueError):
    """Estimation failure, tagged with the pipeline step that raised it."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step


#: The level of the crossings t1 and t2, on the normalized scale.
LEVEL = 0.5
#: Half-width, in time units, of the plateau windows around the extrema.
DELTA = 0.1
#: Half-width, in time units, of the line-fit window around each crossing.
REFINE_WINDOW = 0.5


@dataclass(frozen=True)
class EstimateResult:
    """All pipeline outputs, including diagnostics."""

    alpha_hat: float
    beta_hat: float
    t1_hat: float
    t2_hat: float
    integral_I: float
    pi_hat: float
    t_minval: float
    t_maxval: float

    @property
    def c_hat(self) -> float:
        """The rate the integral gives, 1 / I."""
        return 1.0 / self.integral_I


@dataclass(frozen=True)
class RowEstimates:
    """Pipeline outputs for every row of a batch (see ``estimate_rows``).

    Each array holds one value per row; the values of a failed row are
    meaningless.  ``errors[r]`` is the ``PipelineError`` of the first step
    that failed on row r, or None when the row succeeded.
    """

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    t1_hat: np.ndarray
    t2_hat: np.ndarray
    integral_I: np.ndarray
    pi_hat: np.ndarray
    t_minval: np.ndarray
    t_maxval: np.ndarray
    errors: tuple
    ok: np.ndarray  # the rows that passed every step, errors[r] is None


@dataclass(frozen=True)
class NormalizedCurve:
    """Sampled normalized fractions f1(t) with strictly increasing times."""

    t: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        f1 = np.asarray(self.f1, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "f1", f1)
        if t.shape != f1.shape or t.ndim != 1 or len(t) < 2:
            raise ValueError("curve needs matching 1-d arrays of length >= 2")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f1))):
            raise ValueError("curve values must be finite")


# -- row-wise steps ---------------------------------------------------------
#
# Each takes the shared times ``t`` (n,), a 2-D array ``f``/``f1`` (rows, n)
# and per-row parameters of shape (rows,), and reports rows that fail
# through ``fails``.  A step that works near k points of each row takes them
# as one (k, rows) array and reads only a fixed-width slab of knots around
# each (see ``_slab``).  Failed rows run on with meaningless values, so
# callers silence floating-point warnings around them.


class _Failures:
    """The first failing step of each row of a batch, as a PipelineError."""

    def __init__(self, rows: int):
        self.ok = np.ones(rows, dtype=bool)
        self.errors = [None] * rows

    def check(self, good, step: str, describe):
        """Fail each row still ok where ``good`` is false; ``describe(r)``
        gives row r's message."""
        bad = self.ok & ~good
        if bad.any():
            for r in np.flatnonzero(bad):
                self.errors[r] = PipelineError(step, describe(r))
            self.ok &= ~bad

    def raise_first(self):
        for err in self.errors:
            if err is not None:
                raise err


def _rough_alpha_beta(f, fails):
    lo, hi = f.min(axis=1), f.max(axis=1)
    fails.check(hi != lo, "rough_alpha_beta",
                lambda r: "all fractions are equal; no oscillation signal")
    return hi - lo, lo


def _normalize(f, alpha, beta, fails):
    fails.check(alpha > 0, "normalize",
                lambda r: f"alpha_hat must be > 0, got {alpha[r]}")
    return (f - beta[:, None]) / alpha[:, None]


#: Distances closer than this many grid steps count as equal, so that float
#: noise in decimal grid knots cannot decide which side of an edge they are on.
_TIE_STEPS = 1e-8
_SCAN_CELLS = 1 << 18  # most (rate, time) pairs one call of fit_model's kernel sees


def _min_step(t):
    """The smallest step between the knots ``t``."""
    return (t[1:] - t[:-1]).min()


def _interpolate(t, f1, x):
    """Each row's piecewise-linear interpolant at that row's points x
    (rows, q); exact at the knots."""
    k = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    w = (x - t[k]) / (t[k + 1] - t[k])
    rows = np.arange(len(f1))[:, None]
    return f1[rows, k] * (1 - w) + f1[rows, k + 1] * w


def _segment_zeros(ta, tb, ga, gb):
    """Where the line through (ta, ga) and (tb, gb) meets 0, kept at or
    below tb against rounding; meaningful on segments whose ends lie on
    opposite sides of 0 or whose left end is on it."""
    return np.minimum(ta + (tb - ta) * (ga / (ga - gb)), tb)


def _slab(t, f1, centers, half, step):
    """The times and values of a run of knots around each of ``centers``
    (k, rows), both (k, rows, width), holding every knot within ``half``
    of its centre (and a tie more, against rounding).

    ``width`` follows from ``half`` and the smallest step of ``t`` alone, so
    a row reads the same slab in any batch.  Masked to its window and summed
    along its last axis, a slab gives the full-row masked sum bit for bit on
    rows of up to 128 knots: a window of at most two knots sums exactly in
    any order, and a wider one gets a run that starts on a multiple of 8
    knots and ends n mod 8 knots past one, as the row does, so NumPy's
    pairwise sum groups its values as over the whole row (blocks of 8, then
    the row's last n mod 8 one by one).
    """
    n = len(t)
    reach = half + _TIE_STEPS * step
    most = int(2 * reach / step) + 1  # knots within reach of a centre
    first = t.searchsorted(centers - reach)
    if int(2 * half / step) < 2:  # at most two knots in a window
        width = min(n, most)
    else:
        # whole blocks of 8 for the window and up to 7 knots before it,
        # then the row's last n mod 8
        width = min(n, (most + 14) // 8 * 8 + n % 8)
        first &= -8  # the multiple of 8 at or below the first knot
    knots = np.minimum(first, n - width)[..., None] + np.arange(width)
    return t.take(knots), f1.take(knots + n * np.arange(len(f1))[:, None])


def _runs(t, f1, level):
    """Each run of knots at or above ``level`` (a knot on the level counts
    as above) in the rows of ``f1``, in row and time order, then a stand-in
    run of knot 0 alone for each row: the run's row, its bounds (i, j + 1)
    for knots i..j and its rising and falling end times.  An end at bound 0
    or n is the data's end; any other is where the interpolant crosses the
    level, solved exactly on its segment."""
    n, rows = len(t), len(f1)
    # with a knot below the level padded on at each end, a row's flag flips
    # at p = i and p = j + 1 for each run of knots i..j, in pairs
    above = np.zeros((rows, n + 2), dtype=bool)
    np.greater_equal(f1, level, out=above[:, 1:-1])
    flips = np.flatnonzero(above[:, 1:] != above[:, :-1])
    flips = np.concatenate(
        (flips, ((n + 1) * np.arange(rows)[:, None] + (0, 1)).ravel()))
    row, p = np.divmod(flips, n + 1)
    # the run ends where the segment from knot p - 1 to knot p meets the
    # level, exactly at t[p] when knot p is on it; the data's ends stand in
    # at p = 0 and p = n, where the clipped reads below are not used
    at = flips - row - 1  # knot p - 1 of the row, flat
    ga = f1.take(at, mode="clip") - level
    gb = f1.take(at + 1, mode="clip") - level
    ta, tb = t.take(p - 1, mode="clip"), t.take(p, mode="clip")
    ends = np.where((p % n == 0) | (gb == 0), tb,
                    _segment_zeros(ta, tb, ga, gb)).reshape(-1, 2)
    return row[::2], p.reshape(-1, 2), ends


def _find_half_period(t, f1, level, fails):
    """The rising and the falling end of each row's longest run of the
    interpolant at or above ``level`` (see ``_runs``).

    On a sinusoid every such run is one half-period long and a run cut off
    by the data is shorter, so the longest run skips the short runs that
    noise makes near a crossing and never pairs two rising crossings.  A
    row whose longest run touches either end of the data fails.
    """
    n, rows = len(t), len(f1)
    row, bounds, ends = _runs(t, f1, level)
    length = ends[:, 1] - ends[:, 0]
    length[-rows:] = -np.inf
    longest = np.full(rows, -np.inf)
    np.maximum.at(longest, row, length)
    # each row's first longest run; the stand-in, its last, only when the
    # row has no other
    win = np.flatnonzero(length == longest[row])
    first = np.arange(len(length) - rows, len(length))
    np.minimum.at(first, row[win], win)
    (t1, t2), (start, stop) = ends[first].T, bounds[first].T
    fails.check((start > 0) & (stop < n), "find_crossing",
                lambda r: f"the longest run at or above level {level}, "
                          f"[{t1[r]}, {t2[r]}], is cut off by the data range "
                          f"[{t[0]}, {t[-1]}]; no complete half-period")
    return t1, t2


def _refine_alpha_beta(t, f1, t1, t2, delta, fails):
    t_lo, t_hi = t[0], t[-1]
    t_maxval = (t1 + t2) / 2
    below, above = (3 * t1 - t2) / 2, (3 * t2 - t1) / 2
    step = _min_step(t)
    tie = _TIE_STEPS * step
    t_minval = np.where(below >= t_lo - tie, below, np.where(
        above <= t_hi + tie, above, np.clip(below, t_lo, t_hi)))
    # both plateau means in one pass over the knots near either centre
    centers = np.array((t_minval, t_maxval))
    tk, fk = _slab(t, f1, centers, delta - tie, step)
    inside = np.abs(tk - centers[..., None]) < delta - tie
    n_min, n_max = n = inside.sum(axis=2)
    beta, top = (fk * inside).sum(axis=2) / n
    fails.check((n_min > 0) & (n_max > 0), "refine_alpha_beta",
                lambda r: f"no grid points within {delta} of " + (
                    f"t_minval={t_minval[r]}" if n_min[r] == 0
                    else f"t_maxval={t_maxval[r]}"))
    return top - beta, beta, t_minval, t_maxval


def _refine_crossing_linear(t, f1, t_i, window, level, fails):
    """Refine each of the crossings ``t_i`` (k, rows) of every row at once;
    a row fails at its first crossing that fails, for the first reason."""
    step = _min_step(t)
    half = window + _TIE_STEPS * step
    tk, fk = _slab(t, f1, t_i, half, step)
    w = np.abs(tk - t_i[..., None]) <= half
    n = w.sum(axis=2)
    # closed-form least-squares line through the windowed points
    t_mean = (w * tk).sum(axis=2) / n
    f_mean = (w * fk).sum(axis=2) / n
    dt = w * (tk - t_mean[..., None])
    slope = (dt * (fk - f_mean[..., None])).sum(axis=2) / (dt * dt).sum(axis=2)
    t_hat = t_mean + (level - f_mean) / slope
    fit = (n >= 2) & (np.abs(slope) >= 1e-12)
    good = fit & (t[0] <= t_hat) & (t_hat <= t[-1])

    def describe(r):
        c = good[:, r].argmin()  # the row's first crossing that fails
        if n[c, r] < 2:
            return f"need >= 2 points within {window} of t={t_i[c, r]}, got {n[c, r]}"
        if not fit[c, r]:
            return f"fitted slope {slope[c, r]} too small; no crossing defined"
        return (f"refined crossing {t_hat[c, r]} outside data range "
                f"[{t[0]}, {t[-1]}]")

    fails.check(good.all(axis=0), "refine_crossing_linear", describe)
    return t_hat


def _trapezoid_integral(t, f1, t1, t2, level, fails):
    fails.check((t[0] <= t1) & (t1 < t2) & (t2 <= t[-1]), "trapezoid_integral",
                lambda r: f"limits [{t1[r]}, {t2[r]}] invalid for range "
                          f"[{t[0]}, {t[-1]}]")
    rows, n = f1.shape
    g = (f1 - level).ravel()
    # running sums of each row's panels: column k is the integral of the
    # interpolant from t[0] to knot k + 1.  The panels are taken over the
    # flat rows, so each row's last column joins it to the next row and is
    # never read.
    panels = np.zeros((rows, n))
    np.add(g[:-1], g[1:], out=panels.ravel()[:-1])
    to_next = np.cumsum(panels / 2 * np.append(t[1:] - t[:-1], 0), axis=1)
    # both limits in one pass: whole panels to the knot k at or left of the
    # limit, plus a partial panel from it
    x = np.array((t1, t2))
    k = np.minimum(np.maximum(t.searchsorted(x, side="right") - 1, 0), n - 2)
    at = k + n * np.arange(rows)
    gk, tk = g.take(at), t.take(k)
    w = (x - tk) / (t.take(k + 1) - tk)
    to = (np.where(k > 0, to_next.take(at - 1), 0)
          + (gk + (gk * (1 - w) + g.take(at + 1) * w)) / 2 * (x - tk))
    return to[1] - to[0]


def _on_one_row(step, *args):
    """Run a row-wise step on a single row and raise its PipelineError."""
    fails = _Failures(1)
    with np.errstate(all="ignore"):
        out = step(*args, fails)
    fails.raise_first()
    return out


def _row(value: float) -> np.ndarray:
    return np.array([value], dtype=float)


# -- public steps -----------------------------------------------------------


def rough_alpha_beta(ds: Dataset) -> tuple[float, float]:
    """Rough amplitude/offset: beta = min f, alpha = max f - min f."""
    alpha, beta = _on_one_row(_rough_alpha_beta, ds.fractions()[None])
    return float(alpha[0]), float(beta[0])


def normalize(ds: Dataset, alpha_hat: float, beta_hat: float) -> NormalizedCurve:
    """Affine rescale f1 = (f - beta)/alpha; values are not clamped."""
    f1 = _on_one_row(_normalize, ds.fractions()[None], _row(alpha_hat),
                     _row(beta_hat))
    return NormalizedCurve(ds.times(), f1[0])


def interpolate(curve: NormalizedCurve, t) -> float | np.ndarray:
    """Piecewise-linear interpolant of the curve; exact at grid points."""
    tq = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tq)):
        raise ValueError(f"interpolate: queries must be finite, got {t}")
    if np.any(tq < curve.t[0]) or np.any(tq > curve.t[-1]):
        raise PipelineError(
            "interpolate",
            f"query outside data range [{curve.t[0]}, {curve.t[-1]}]")
    out = _interpolate(curve.t, curve.f1[None], tq.reshape(1, -1)).reshape(tq.shape)
    return float(out) if np.isscalar(t) or tq.ndim == 0 else out


def find_crossing(curve: NormalizedCurve, start: float) -> float:
    """The crossing of the interpolated curve with ``LEVEL`` nearest ``start``.

    The crossings are the ends inside the data of the runs at or above
    ``LEVEL``, as step 4 solves them.  A knot on the level counts as above,
    so one that touches the level from below is a crossing and one that
    touches it from above is not.  Distance is exact; of two crossings
    equally near, the right-hand one wins.  Raises ``ValueError`` on a
    start that is not finite.
    """
    if not math.isfinite(start):
        raise ValueError(f"find_crossing: start must be finite, got {start}")
    t = curve.t
    with np.errstate(all="ignore"):  # 0 / 0 at ends where() does not use
        _, bounds, ends = _runs(t, curve.f1[None], LEVEL)
    # the last run is the stand-in
    x = ends[:-1][(bounds[:-1] > 0) & (bounds[:-1] < len(t))]
    if not len(x):
        raise PipelineError("find_crossing", f"no crossing of level {LEVEL} "
                                             f"inside [{t[0]}, {t[-1]}]")
    dist = np.abs(x - start)
    return float(x[dist == dist.min()].max())


def refine_alpha_beta(curve: NormalizedCurve, t1_hat: float,
                      t2_hat: float) -> tuple[float, float, float, float]:
    """Refine amplitude/offset from plateau averages near the extrema.

    The maximum of the curve sits midway between the crossings; the minimum
    a half-period below the first crossing or, when that falls outside the
    data range, a half-period above the second (clamping to the range edge
    would average over a window that misses the true minimum and bias the
    offset).  Windows are strict, |t - t_hat| < DELTA, and a distance within
    ``_TIE_STEPS`` grid steps of an edge or range end counts as on it.
    Returns (alpha, beta, t_minval, t_maxval) on the scale of the given curve.
    """
    out = _on_one_row(_refine_alpha_beta, curve.t, curve.f1[None],
                      _row(t1_hat), _row(t2_hat), DELTA)
    return tuple(float(v[0]) for v in out)


def refine_crossing_linear(curve: NormalizedCurve, t_i: float) -> float:
    """Refine a crossing by a line through the points with
    |t - t_i| <= REFINE_WINDOW, a distance within ``_TIE_STEPS`` grid steps
    of the edge counting as on it.  Raises when the line meets ``LEVEL``
    outside the data range."""
    return float(_on_one_row(_refine_crossing_linear, curve.t, curve.f1[None],
                             _row(t_i)[None], REFINE_WINDOW, LEVEL)[0, 0])


def trapezoid_integral(curve: NormalizedCurve, t1: float, t2: float) -> float:
    """Integral of (f1~(t) - LEVEL) over [t1, t2], exact for the interpolant.

    A running sum of whole trapezoid panels from the first grid point,
    plus partial panels at both ends using interpolated endpoint values.
    """
    return float(_on_one_row(_trapezoid_integral, curve.t, curve.f1[None],
                             _row(t1), _row(t2), LEVEL)[0])


# -- the pipeline -----------------------------------------------------------


def estimate_rows(times, fractions) -> RowEstimates:
    """Run the nine-step pipeline on every row of ``fractions``.

    ``times`` holds the strictly increasing sample times shared by all rows,
    ``fractions`` one row of |1> fractions per dataset.  A failing row does
    not stop the batch; ``errors`` names the first step it failed and ``ok``
    marks the rows that passed every step.

    Cost per row of n knots: O(n) for the minimum and maximum, the two
    normalizations, the flags of the knots at or above 1/2 and the running
    sum of the integral's panels.  The half-period solves a crossing only
    at each run boundary (2 to 4 per row), and the plateau and crossing
    windows read only a slab of the knots they hold, whose width depends on
    the times and the window alone.  A row's results do not depend on the
    batch it is in.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(fractions, dtype=float)
    if t.ndim != 1 or len(t) < 2 or f.ndim != 2 or f.shape[1] != len(t):
        raise ValueError(f"need >= 2 times and one column of fractions per "
                         f"time, got times {t.shape} and fractions {f.shape}")
    if not np.all(t[1:] > t[:-1]):  # the slab widths divide by the least step
        raise ValueError("times must be strictly increasing")
    fails = _Failures(len(f))
    with np.errstate(all="ignore"):
        alpha1, beta1 = _rough_alpha_beta(f, fails)
        f1 = _normalize(f, alpha1, beta1, fails)
        t1_rough, t2_rough = _find_half_period(t, f1, LEVEL, fails)
        alpha5, beta5, t_minval, t_maxval = _refine_alpha_beta(
            t, f1, t1_rough, t2_rough, DELTA, fails)
        fails.check(alpha5 > 0, "refine_alpha_beta",
                    lambda r: f"refined amplitude {alpha5[r]} is not positive")
        # compose the normalized-scale refinement with the rough estimates so
        # the second normalization acts on raw fractions
        alpha_hat = alpha1 * alpha5
        beta_hat = beta1 + alpha1 * beta5
        f1 = _normalize(f, alpha_hat, beta_hat, fails)
        t1_hat, t2_hat = _refine_crossing_linear(
            t, f1, np.array((t1_rough, t2_rough)), REFINE_WINDOW, LEVEL, fails)
        fails.check(t1_hat < t2_hat, "refine_crossing_linear",
                    lambda r: f"refined crossings out of order: "
                              f"{t1_hat[r]} >= {t2_hat[r]}")
        integral = _trapezoid_integral(t, f1, t1_hat, t2_hat, LEVEL, fails)
        fails.check(integral > 0, "trapezoid_integral",
                    lambda r: f"integral {integral[r]} is not positive")
        pi_hat = (t2_hat - t1_hat) / integral
    return RowEstimates(alpha_hat=alpha_hat, beta_hat=beta_hat, t1_hat=t1_hat,
                        t2_hat=t2_hat, integral_I=integral, pi_hat=pi_hat,
                        t_minval=t_minval, t_maxval=t_maxval,
                        errors=tuple(fails.errors), ok=fails.ok)


def estimate_pi(ds: Dataset) -> EstimateResult:
    """Run the full nine-step pipeline on one dataset."""
    rows = estimate_rows(ds.times(), ds.fractions()[None])
    if rows.errors[0] is not None:
        raise rows.errors[0]
    return EstimateResult(
        alpha_hat=float(rows.alpha_hat[0]),
        beta_hat=float(rows.beta_hat[0]),
        t1_hat=float(rows.t1_hat[0]),
        t2_hat=float(rows.t2_hat[0]),
        integral_I=float(rows.integral_I[0]),
        pi_hat=float(rows.pi_hat[0]),
        t_minval=float(rows.t_minval[0]),
        t_maxval=float(rows.t_maxval[0]),
    )


_EPS = np.finfo(float).eps


def _fit_at_rates(t, f, c):
    """RSS, alpha, beta and phi0 of the best valid curve at each rate in
    ``c``: the least-squares k - u*cos(ct) - v*sin(ct), with its levels
    k -/+ |(u, v)| clipped to [0, 1].

    (u, v) solve the 2x2 normal equations of the mean-centred cos/sin
    columns by Cramer's rule and k follows from the means.  A rate whose
    centred columns are collinear gets RSS inf: below det = eps * (CC+SS)^2
    the squared condition number exceeds 1/eps and the solve carries no
    correct digits.

    ``fit_model`` calls it once for its rate scan and then once for each
    round of its rate search, at 33 rates or at one, where the cost is per
    NumPy call, not per element.  So it uses reductions, ufuncs and
    in-place updates rather than ``mean``, ``clip`` and ``where``, each
    rounding as the plain formula does: a mean is NumPy's sum divided by
    the count, clipping to [0, 1] is a maximum then a minimum on finite
    values, and (pred - f)^2 equals (f - pred)^2.  The search's path turns
    on every bit of the RSS, so any other rounding can change the fit.
    """
    n = len(t)
    ct = np.multiply.outer(c, t)
    cos, sin = np.cos(ct), np.sin(ct)
    mean_cos, mean_sin, mean_f = cos.sum(axis=1) / n, sin.sum(axis=1) / n, f.sum() / n
    cc, ss = cos - mean_cos[:, None], sin - mean_sin[:, None]
    y = f - mean_f
    yc, ys = cc @ y, ss @ y
    c2, s2 = (cc * cc).sum(axis=1), (ss * ss).sum(axis=1)
    cc *= ss
    cs = cc.sum(axis=1)
    det = c2 * s2 - cs * cs
    scale = c2 + s2
    collinear = det <= _EPS * (scale * scale)
    det[collinear] = np.inf  # u = v = 0 there, and no warning
    u = (ys * cs - yc * s2) / det
    v = (yc * cs - ys * c2) / det
    k, r = mean_f + u * mean_cos + v * mean_sin, np.hypot(u, v)
    beta = np.minimum(np.maximum(k - r, 0.0), 1.0)
    alpha = np.minimum(np.maximum(k + r, 0.0), 1.0) - beta
    phi0 = np.arctan2(-v, u)
    half = alpha / 2
    # beta + half * (1 - cos(ct + phi0)) - f, expanded
    pred = (half * np.cos(phi0))[:, None] * cos
    np.subtract((beta + half)[:, None], pred, out=pred)
    sin *= (half * np.sin(phi0))[:, None]
    pred += sin
    pred -= f
    pred *= pred
    rss = pred.sum(axis=1)
    rss[collinear] = np.inf
    return rss, alpha, beta, phi0


def _fit_in_batches(t, f, c):
    """``_fit_at_rates`` over ``c`` in calls of at most ``_SCAN_CELLS``
    (rate, time) pairs, so a long file cannot make one call's arrays huge."""
    per = max(1, _SCAN_CELLS // len(t))
    parts = [_fit_at_rates(t, f, c[i:i + per]) for i in range(0, len(c), per)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def fit_model(ds: Dataset) -> NoiseModel:
    """Least-squares fit of all four curve parameters to the fractions.

    Variable projection (Golub & Pereyra 1973): amplitude, offset and phase
    are closed-form at each of the < 2n rates c in quarter-period steps over
    the span below the mean Nyquist rate pi (n - 1) / span; the best is then
    refined within one step by ``optimize.minimize_on_bracket``, 33 rates
    per kernel call, and the levels and phase are those of the best rate it
    evaluated.  The search is looked up as the module global ``optimize``
    on every call, so a caller may rebind it (a tracer counting the rates
    evaluated does).  At a fixed rate the offset-plus-sinusoid
    least-squares problem is solved on mean-centred cos/sin columns, as in
    the floating-mean periodogram (Zechmeister & Kuerster, A&A 496, 577,
    2009).  Raises ``PipelineError`` on fewer than 4 times, where any of
    many curves fits exactly, and on constant data.
    """
    t, f = ds.times(), ds.fractions()
    if len(t) < 4:
        raise PipelineError("fit_model", f"need >= 4 times to fit 4 parameters, "
                                         f"got {len(t)}")
    if f.min() == f.max():
        raise PipelineError("fit_model", "all fractions are equal; no rate")
    step = math.pi / (2 * (t[-1] - t[0]))
    rates = step * np.arange(1, 2 * (len(t) - 1))
    best = rates[_fit_in_batches(t, f, rates)[0].argmin()]
    res = optimize.minimize_on_bracket(lambda c: _fit_in_batches(t, f, c),
                                       best - step, best + step)
    _, alpha, beta, phi0 = res.out
    return NoiseModel(alpha=float(alpha), beta=float(beta), phi0=float(phi0),
                      c=res.x)


@dataclass(frozen=True)
class ScreenVerdict:
    """Outcome of dataset screening; ``reason``/``location`` set on rejection."""

    accepted: bool
    reason: str = ""
    location: float | None = None

    def __bool__(self) -> bool:
        return self.accepted


def screen_dataset(ds: Dataset) -> ScreenVerdict:
    """Reject datasets whose fractions jump more than the model plus noise allow.

    Between adjacent times the model probability can change by at most
    c*dt/2 (c from ``fit_model``, not run on data that never jumps); on top
    of that we allow 5 binomial standard deviations at the worst case
    p = 1/2.  A larger jump indicates a calibration step.
    """
    t = ds.times()
    jump = np.abs(np.diff(ds.fractions()))
    if jump.any():  # constant fractions have no rate to fit
        threshold = (fit_model(ds).c * np.diff(t) / 2
                     + 5 * np.sqrt(0.25 / np.minimum(ds.shots[:-1], ds.shots[1:])))
        i = np.argmax(jump > threshold)  # the first jump over, if any
        if jump[i] > threshold[i]:
            return ScreenVerdict(
                accepted=False,
                reason=(f"fraction jump {jump[i]:.4f} between t={t[i]} and "
                        f"t={t[i + 1]} exceeds threshold {threshold[i]:.4f}"),
                location=float(t[i + 1]),
            )
    return ScreenVerdict(accepted=True)
