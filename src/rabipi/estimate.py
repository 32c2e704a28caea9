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
  5. refine amplitude/offset from plateau averages near the extrema
  6. re-normalize with the refined constants
  7. refine each crossing with a local least-squares line; a refined
     crossing outside the data range fails here
  8. trapezoidal integral of the normalized curve minus 1/2
  9. pi_hat = (t2 - t1) / I

Every step works row-wise on a 2-D array of fractions, one row per dataset.
``estimate_rows`` runs the pipeline on such a batch and records, per row,
the first step that failed; ``estimate_pi`` and the public step functions
run the same code on a single row and raise that step's ``PipelineError``.

Also provides the full four-parameter curve fit used for plotting and a
screener that rejects datasets with calibration jumps.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .model import NoiseModel
from .simulate import Dataset

__all__ = [
    "EstimateConfig",
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


@dataclass(frozen=True)
class EstimateConfig:
    """Tuning knobs of the pipeline; defaults follow the reference protocol.

    The crossings need no search start: t1 and t2 bound the longest run of
    the normalized curve at or above 1/2, one half-period on a sinusoid,
    and an estimate fails at ``find_crossing`` when that run is cut off by
    either end of the data (so also when no run lies wholly inside it).
    """

    delta: float = 0.1          # half-width of the extremum averaging window
    refine_window: float = 0.5  # half-width of the linear-fit window

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.refine_window <= 0:
            raise ValueError(f"refine_window must be > 0, got {self.refine_window}")


@dataclass(frozen=True)
class EstimateResult:
    """All pipeline outputs, including diagnostics."""

    alpha_hat: float
    beta_hat: float
    t1_hat: float
    t2_hat: float
    integral_I: float
    pi_hat: float
    c_hat: float
    t_minval: float
    t_maxval: float


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

    @property
    def ok(self) -> np.ndarray:
        """Boolean mask of the rows that passed every step."""
        return np.array([e is None for e in self.errors], dtype=bool)


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
# through ``fails``.  Failed rows run on with meaningless values, so callers
# silence floating-point warnings around them.


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
_SCAN_CELLS = 1 << 18  # most (rate, time) pairs fit_model's scan evaluates at once


def _interpolate(t, f1, x):
    """Each row's piecewise-linear interpolant at that row's points x
    (rows, q); exact at the knots."""
    k = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    w = (x - t[k]) / (t[k + 1] - t[k])
    rows = np.arange(len(f1))[:, None]
    return f1[rows, k] * (1 - w) + f1[rows, k + 1] * w


def _segment_zeros(t, g):
    """Where each segment's interpolant of ``g`` (rows, n) meets 0, kept
    inside the segment against rounding; meaningful on segments whose ends
    lie on opposite sides of 0 or whose left end is on it."""
    ga, gb = g[:, :-1], g[:, 1:]
    return np.minimum(t[:-1] + np.diff(t) * (ga / (ga - gb)), t[1:])


def _find_crossing(t, f1, start, level, fails):
    start = min(max(start, t[0]), t[-1])
    g = f1 - level
    ga, gb = g[:, :-1], g[:, 1:]
    dt = np.diff(t)
    # candidates: knots on the level, and the exact crossing of each segment
    # whose ends lie strictly on opposite sides of it; inf marks none
    x = np.concatenate((
        np.where(g == 0, t, np.inf),
        np.where(ga * gb < 0, _segment_zeros(t, g), np.inf),
    ), axis=1)
    dist = np.abs(x - start)
    # the search widens one grid step per side and round, right side first;
    # a candidate a whole number of steps away belongs to the earlier round
    order = 2 * np.ceil(dist / dt.min() - _TIE_STEPS) + (x < start)
    first = order.min(axis=1)
    fails.check(np.isfinite(first), "find_crossing",
                lambda r: f"no crossing of level {level} within "
                          f"[{t[0]}, {t[-1]}] near t={start}")
    pick = np.where(order == first[:, None], dist, np.inf).argmin(axis=1)
    return x[np.arange(len(x)), pick]


def _find_half_period(t, f1, level, fails):
    """The rising and the falling end of each row's longest run of the
    interpolant at or above ``level``; a knot on the level counts as above.

    On a sinusoid every such run is one half-period long and a run cut off
    by the data is shorter, so the longest run skips the short runs that
    noise makes near a crossing and never pairs two rising crossings.  A
    row whose longest run touches either end of the data fails.
    """
    g = f1 - level
    above = g >= 0
    rows, knots = np.arange(len(g)), np.arange(len(t))
    x = _segment_zeros(t, g)
    # run ends by knot: a run starting at knot i > 0 rises on segment i - 1,
    # exactly at t[i] when that knot is on the level; one ending at knot
    # j < n - 1 falls on segment j.  The data's ends stand in at its edges.
    rise = np.concatenate((np.full((len(g), 1), t[0]),
                           np.where(g[:, 1:] == 0, t[1:], x)), axis=1)
    fall = np.concatenate((x, np.full((len(g), 1), t[-1])), axis=1)
    starts = above.copy()
    starts[:, 1:] &= ~above[:, :-1]
    ends = above.copy()
    ends[:, :-1] &= ~above[:, 1:]
    # the first knot of the run that holds each knot
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


def _window_mean(t, f1, center, delta):
    """Mean of each row over |t - center| < delta, and the point count."""
    inside = np.abs(t - center[:, None]) < delta
    n = inside.sum(axis=1)
    return (f1 * inside).sum(axis=1) / n, n


def _refine_alpha_beta(t, f1, t1, t2, delta, fails):
    t_lo, t_hi = t[0], t[-1]
    t_maxval = (t1 + t2) / 2
    below, above = (3 * t1 - t2) / 2, (3 * t2 - t1) / 2
    tie = _TIE_STEPS * np.diff(t).min()
    t_minval = np.where(below >= t_lo - tie, below, np.where(
        above <= t_hi + tie, above, np.clip(below, t_lo, t_hi)))
    beta, n_min = _window_mean(t, f1, t_minval, delta - tie)
    top, n_max = _window_mean(t, f1, t_maxval, delta - tie)
    fails.check(n_min > 0, "refine_alpha_beta",
                lambda r: f"no grid points within {delta} of t_minval={t_minval[r]}")
    fails.check(n_max > 0, "refine_alpha_beta",
                lambda r: f"no grid points within {delta} of t_maxval={t_maxval[r]}")
    return top - beta, beta, t_minval, t_maxval


def _refine_crossing_linear(t, f1, t_i, window, level, fails):
    w = np.abs(t - t_i[:, None]) <= window + _TIE_STEPS * np.diff(t).min()
    n = w.sum(axis=1)
    fails.check(n >= 2, "refine_crossing_linear",
                lambda r: f"need >= 2 points within {window} of t={t_i[r]}, "
                          f"got {n[r]}")
    # closed-form least-squares line through the windowed points
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


def _trapezoid_integral(t, f1, t1, t2, level, fails):
    fails.check((t[0] <= t1) & (t1 < t2) & (t2 <= t[-1]), "trapezoid_integral",
                lambda r: f"limits [{t1[r]}, {t2[r]}] invalid for range "
                          f"[{t[0]}, {t[-1]}]")
    g = f1 - level
    rows = np.arange(len(g))
    # integral of the interpolant from t[0] to each knot
    panels = (g[:, :-1] + g[:, 1:]) / 2 * np.diff(t)
    to_knot = np.concatenate((np.zeros((len(g), 1)), np.cumsum(panels, axis=1)),
                             axis=1)

    def to(x):
        """Integral from t[0] to x: whole panels plus a partial end panel."""
        k = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
        gx = _interpolate(t, g, x[:, None])[:, 0]
        return to_knot[rows, k] + (g[rows, k] + gx) / 2 * (x - t[k])

    return to(t2) - to(t1)


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
    if np.any(tq < curve.t[0]) or np.any(tq > curve.t[-1]):
        raise PipelineError(
            "interpolate",
            f"query outside data range [{curve.t[0]}, {curve.t[-1]}]")
    out = _interpolate(curve.t, curve.f1[None], tq.reshape(1, -1)).reshape(tq.shape)
    return float(out) if np.isscalar(t) or tq.ndim == 0 else out


def find_crossing(curve: NormalizedCurve, start: float, level: float = 0.5) -> float:
    """Locate a crossing of the interpolated curve with ``level`` near ``start``.

    Among the knots on the level and the segments whose ends straddle it,
    the one nearest ``start`` (clamped to the data range) wins.  Distance is
    counted in whole grid steps, rounded up (within ``_TIE_STEPS`` of a whole
    step counts as whole), and on a tie the right side wins: the order of a
    search that widens one grid step at a time, right then left.  The
    crossing is solved exactly on its segment.

    The pipeline no longer uses this search: ``estimate_pi`` takes t1 and
    t2 from the ends of the longest run of the curve at or above 1/2, which
    needs no start.
    """
    return float(_on_one_row(_find_crossing, curve.t, curve.f1[None],
                             start, level)[0])


def refine_alpha_beta(curve: NormalizedCurve, t1_hat: float, t2_hat: float,
                      delta: float = 0.1) -> tuple[float, float, float, float]:
    """Refine amplitude/offset from plateau averages near the extrema.

    The maximum of the curve sits midway between the crossings; the minimum
    a half-period below the first crossing or, when that falls outside the
    data range, a half-period above the second (clamping to the range edge
    would average over a window that misses the true minimum and bias the
    offset).  Windows are strict, |t - t_hat| < delta, and a distance within
    ``_TIE_STEPS`` grid steps of an edge or range end counts as on it.
    Returns (alpha, beta, t_minval, t_maxval) on the scale of the given curve.
    """
    out = _on_one_row(_refine_alpha_beta, curve.t, curve.f1[None],
                      _row(t1_hat), _row(t2_hat), delta)
    return tuple(float(v[0]) for v in out)


def refine_crossing_linear(curve: NormalizedCurve, t_i: float,
                           window: float = 0.5, level: float = 0.5) -> float:
    """Refine a crossing by a line through the points with |t - t_i| <= window,
    a distance within ``_TIE_STEPS`` grid steps of the edge counting as on it.
    Raises when the line meets ``level`` outside the data range."""
    return float(_on_one_row(_refine_crossing_linear, curve.t, curve.f1[None],
                             _row(t_i), window, level)[0])


def trapezoid_integral(curve: NormalizedCurve, t1: float, t2: float,
                       level: float = 0.5) -> float:
    """Integral of (f1~(t) - level) over [t1, t2], exact for the interpolant.

    A running sum of whole trapezoid panels from the first grid point,
    plus partial panels at both ends using interpolated endpoint values.
    """
    return float(_on_one_row(_trapezoid_integral, curve.t, curve.f1[None],
                             _row(t1), _row(t2), level)[0])


# -- the pipeline -----------------------------------------------------------


def estimate_rows(times, fractions,
                  cfg: EstimateConfig = EstimateConfig()) -> RowEstimates:
    """Run the nine-step pipeline on every row of ``fractions``.

    ``times`` holds the strictly increasing sample times shared by all rows,
    ``fractions`` one row of |1> fractions per dataset.  A failing row does
    not stop the batch; ``errors`` names the first step it failed.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(fractions, dtype=float)
    if t.ndim != 1 or len(t) < 2 or f.ndim != 2 or f.shape[1] != len(t):
        raise ValueError(f"need >= 2 times and one column of fractions per "
                         f"time, got times {t.shape} and fractions {f.shape}")
    level = 0.5  # pi = (t2 - t1) / I holds between half-level crossings only
    fails = _Failures(len(f))
    with np.errstate(all="ignore"):
        alpha1, beta1 = _rough_alpha_beta(f, fails)
        f1 = _normalize(f, alpha1, beta1, fails)
        t1_rough, t2_rough = _find_half_period(t, f1, level, fails)
        alpha5, beta5, t_minval, t_maxval = _refine_alpha_beta(
            t, f1, t1_rough, t2_rough, cfg.delta, fails)
        fails.check(alpha5 > 0, "refine_alpha_beta",
                    lambda r: f"refined amplitude {alpha5[r]} is not positive")
        # compose the normalized-scale refinement with the rough estimates so
        # the second normalization acts on raw fractions
        alpha_hat = alpha1 * alpha5
        beta_hat = beta1 + alpha1 * beta5
        f1 = _normalize(f, alpha_hat, beta_hat, fails)
        t1_hat = _refine_crossing_linear(t, f1, t1_rough, cfg.refine_window,
                                         level, fails)
        t2_hat = _refine_crossing_linear(t, f1, t2_rough, cfg.refine_window,
                                         level, fails)
        fails.check(t1_hat < t2_hat, "refine_crossing_linear",
                    lambda r: f"refined crossings out of order: "
                              f"{t1_hat[r]} >= {t2_hat[r]}")
        integral = _trapezoid_integral(t, f1, t1_hat, t2_hat, level, fails)
        fails.check(integral > 0, "trapezoid_integral",
                    lambda r: f"integral {integral[r]} is not positive")
        pi_hat = (t2_hat - t1_hat) / integral
    return RowEstimates(alpha_hat=alpha_hat, beta_hat=beta_hat, t1_hat=t1_hat,
                        t2_hat=t2_hat, integral_I=integral, pi_hat=pi_hat,
                        t_minval=t_minval, t_maxval=t_maxval,
                        errors=tuple(fails.errors))


def estimate_pi(ds: Dataset, cfg: EstimateConfig = EstimateConfig()) -> EstimateResult:
    """Run the full nine-step pipeline on one dataset."""
    rows = estimate_rows(ds.times(), ds.fractions()[None], cfg)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    integral = float(rows.integral_I[0])
    return EstimateResult(
        alpha_hat=float(rows.alpha_hat[0]),
        beta_hat=float(rows.beta_hat[0]),
        t1_hat=float(rows.t1_hat[0]),
        t2_hat=float(rows.t2_hat[0]),
        integral_I=integral,
        pi_hat=float(rows.pi_hat[0]),
        c_hat=1.0 / integral,
        t_minval=float(rows.t_minval[0]),
        t_maxval=float(rows.t_maxval[0]),
    )


def _fit_at_rates(t, f, c):
    """RSS, alpha, beta and phi0 of the best valid curve at each rate in
    ``c``: the least-squares k - u*cos(ct) - v*sin(ct), with its levels
    k -/+ |(u, v)| clipped to [0, 1].

    (u, v) solve the 2x2 normal equations of the mean-centred cos/sin
    columns by Cramer's rule and k follows from the means.  A rate whose
    centred columns are collinear gets RSS inf: below det = eps * (CC+SS)^2
    the squared condition number exceeds 1/eps and the solve carries no
    correct digits.
    """
    ct = np.multiply.outer(c, t)
    cos, sin = np.cos(ct), np.sin(ct)
    mean_cos, mean_sin, mean_f = cos.mean(axis=1), sin.mean(axis=1), f.mean()
    cc, ss = cos - mean_cos[:, None], sin - mean_sin[:, None]
    y = f - mean_f
    yc, ys = cc @ y, ss @ y
    c2, s2, cs = (cc * cc).sum(axis=1), (ss * ss).sum(axis=1), (cc * ss).sum(axis=1)
    det = c2 * s2 - cs * cs
    collinear = det <= np.finfo(float).eps * (c2 + s2) ** 2
    det = np.where(collinear, np.inf, det)  # u = v = 0 there, and no warning
    u = (ys * cs - yc * s2) / det
    v = (yc * cs - ys * c2) / det
    k, r = mean_f + u * mean_cos + v * mean_sin, np.hypot(u, v)
    beta = np.clip(k - r, 0.0, 1.0)
    alpha = np.clip(k + r, 0.0, 1.0) - beta
    phi0 = np.arctan2(-v, u)
    half = alpha / 2
    # beta + half * (1 - cos(ct + phi0)), expanded
    pred = ((beta + half)[:, None] - (half * np.cos(phi0))[:, None] * cos
            + (half * np.sin(phi0))[:, None] * sin)
    rss = np.where(collinear, np.inf, ((f - pred) ** 2).sum(axis=1))
    return rss, alpha, beta, phi0


def fit_model(ds: Dataset) -> NoiseModel:
    """Least-squares fit of all four curve parameters to the fractions.

    Variable projection (Golub & Pereyra 1973): amplitude, offset and phase
    are closed-form at each of the < 2n rates c in quarter-period steps over
    the span below the mean Nyquist rate pi (n - 1) / span; the best is then
    refined within one step.  At a fixed rate the offset-plus-sinusoid
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
    per = max(1, _SCAN_CELLS // len(t))
    rss = np.concatenate([_fit_at_rates(t, f, rates[i:i + per])[0]
                          for i in range(0, len(rates), per)])
    best = rates[rss.argmin()]
    res = optimize.minimize_scalar(
        lambda c: _fit_at_rates(t, f, np.array([c]))[0][0], method="bounded",
        bounds=(best - step, best + step), options={"xatol": 1e-10})
    _, alpha, beta, phi0 = _fit_at_rates(t, f, np.array([res.x]))
    return NoiseModel(alpha=float(alpha[0]), beta=float(beta[0]),
                      phi0=float(phi0[0]), c=float(res.x))


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
