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
screener that rejects datasets with calibration jumps.  ``screen_rows``
screens many datasets on the same times at once: one rate scan for all of
them, then one rate search for the few whose verdict the scan cannot
settle, each getting the verdict it gets alone.
"""

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

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
    "screen_rows",
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

    def result(self, r: int) -> EstimateResult:
        """Row r's outputs; raises its ``PipelineError`` when it failed."""
        if self.errors[r] is not None:
            raise self.errors[r]
        return EstimateResult(**{f.name: float(getattr(self, f.name)[r])
                                 for f in fields(EstimateResult)})


@dataclass(frozen=True)
class NormalizedCurve:
    """Sampled normalized fractions f1(t) with strictly increasing times."""

    t: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.t, dtype=float)
        f1 = np.ascontiguousarray(self.f1, dtype=float)
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
        bad = self.ok > good  # ok and not good
        if np.count_nonzero(bad):
            for r in np.flatnonzero(bad):
                self.errors[r] = PipelineError(step, describe(r))
            self.ok &= ~bad

    def raise_first(self):
        for err in self.errors:
            if err is not None:
                raise err


#: Values in each of NumPy's ufunc buffers while a batch is estimated.  An
#: operand broadcast along a row, or cast from bool, is buffered, and at
#: NumPy's default of 8192 values its buffer would be as large as a slab or
#: most of a batch.
_BUFSIZE = 1024


class _SmallBuffers:
    """Run a ``with`` block with ``_BUFSIZE``-value ufunc buffers."""

    def __enter__(self):
        self.old = np.setbufsize(_BUFSIZE)

    def __exit__(self, *exc):
        np.setbufsize(self.old)


def _rough_alpha_beta(f, fails):
    # both reductions run down the columns of a transposed copy, one row per
    # lane, which is faster than reducing short rows one by one; a minimum or
    # a maximum is exact in any order
    ft = f.T.copy()
    lo, hi = ft.min(axis=0), ft.max(axis=0)
    fails.check(hi != lo, "rough_alpha_beta",
                lambda r: "all fractions are equal; no oscillation signal")
    return hi - lo, lo


def _normalize(f, alpha, beta, fails, out=None):
    fails.check(alpha > 0, "normalize",
                lambda r: f"alpha_hat must be > 0, got {alpha[r]}")
    f1 = np.subtract(f, beta[:, None], out=out)
    f1 /= alpha[:, None]
    return f1


_PAIR = np.array([[0], [1]])  # offsets of a segment's two knots

#: Distances closer than this many grid steps count as equal, so that float
#: noise in decimal grid knots cannot decide which side of an edge they are on.
_TIE_STEPS = 1e-8
_SCAN_CELLS = 1 << 18  # most (file, rate, time) cells of a kernel call or a scan chunk


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


def _key(x):
    """Doubles as int64 keys in the same order; its own inverse."""
    k = x.view(np.int64)
    return k ^ ((k >> 63) & np.int64(0x7FFFFFFFFFFFFFFF))


def _first_centres(t, bound):
    """For each knot of ``t`` (n,) and each row of ``bound`` (k, 1), the
    least double c for which ``t - c``, as float subtraction rounds it, is
    at most the bound: a bisection over the doubles in order, as the rounded
    difference only falls as c rises.

    The difference rounds to at most the bound until it passes the midpoint
    between the bound and the next double up, at c = t - bound less half
    their gap, so the bisection starts from the 16 doubles either side of
    that value as rounded.  Its two roundings stay within two units in the
    last place of the result: where ``t - bound`` cancels enough for the
    first to matter, it is exact (Sterbenz)."""
    def at_most(key):
        return t - _key(key).view(float) <= bound

    guess = _key((t - bound) - (np.nextafter(bound, np.inf) - bound) / 2)
    lo, hi = guess - 16, guess + 16  # above the bound at lo, at most it at hi
    while (lo + 1 < hi).any():
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        below = at_most(mid)
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    return _key(hi).view(float)


class _Windows(NamedTuple):
    """The time-only parts of the windows of one half-width on one grid;
    see ``_windows``.  The tables are indexed by a window's id."""

    tie: float            # _TIE_STEPS grid steps
    edges: np.ndarray     # where a window changes, in order
    knots: np.ndarray     # (4, ids): a window's count of knots, the first
                          # knot of the run of knots that holds it, and its
                          # first and last knot + 1 counted from the run's
    times: np.ndarray     # (2, ids): its knots' mean time and the sum of
                          # their squared deviations from it
    width: int            # knots in a run
    slabs: np.ndarray     # every run of ``width`` knots, as a strided view
    steps: np.ndarray     # steps[k] is the mask of run positions k and above


@functools.lru_cache(maxsize=4)
def _windows(tkey, half_width, strict):
    """The windows of half-width ``half_width`` on the float64 times whose
    bytes are ``tkey``: a knot t is in the window of a centre c when
    ``|t - c|``, as float subtraction rounds it, is below ``half_width``
    less a tie (``strict``) or at most ``half_width`` and a tie.

    ``_first_centres`` gives each knot's first centre in (enter) and out
    (leave); both rise with the knot, so the window of a centre c is knots
    a..b - 1 with a = #{leave <= c} and b = #{enter <= c}.  It changes only
    at an edge, so a + b, the number of edges at or below c, names it (a
    window's id) and every window is the one at -inf or at an edge.  The
    run of knots that holds it, its mean time and the spread of its times
    are computed here for every window, as ``_slab`` and the line fit
    would compute them on a centre's, so a call only looks them up.

    They depend on the times alone: a grid builds them once per half-width,
    in O(n) tables (the runs, of ``width`` knots, in chunks of at most
    ``_SCAN_CELLS`` cells), and the arrays are read-only, as every caller
    gets the same ones.
    """
    t = np.frombuffer(tkey)
    n, step = len(t), _min_step(t)
    tie = _TIE_STEPS * step
    half = half_width - tie if strict else half_width + tie
    # in the window while the difference is at most the top bound, and out
    # of it once it is at most the bottom one
    top, bottom = (np.nextafter(half, -np.inf), -half) if strict else \
        (half, np.nextafter(-half, -np.inf))
    enter, leave = _first_centres(t, np.array([[top], [bottom]]))
    edges = np.sort(np.concatenate((enter, leave)))
    at = np.concatenate(([-np.inf], edges))
    a, b = leave.searchsorted(at, side="right"), enter.searchsorted(at, side="right")
    ids = a + b
    most = int(2 * (half + tie) / step) + 1  # knots in a window, and a tie
    aligned = int(2 * half / step) >= 2  # more than two knots in a window
    # whole blocks of 8 for the window and up to 7 knots before it, then
    # the row's last n mod 8 (see ``_slab``)
    width = min(n, (most + 14) // 8 * 8 + n % 8 if aligned else most)
    start = np.minimum(a & -8 if aligned else a, n - width)
    slabs = np.ndarray((n - width + 1, width), float, t, 0, (8, 8))
    zeros_then_ones = np.arange(2 * width) >= width
    steps = np.ndarray((width + 1, width), bool, zeros_then_ones, width, (-1, 1))
    knots = np.zeros((4, 2 * n + 1), dtype=np.int32)
    knots[:, ids] = b - a, start, a - start, b - start
    counts, starts, lows, highs = knots
    times = np.zeros((2, 2 * n + 1))
    means, spreads = times
    per = max(1, _SCAN_CELLS // width)
    with np.errstate(all="ignore"):  # 0 / 0 on empty windows
        for k in range(0, len(at), per):
            w = ids[k:k + per]
            outside = steps[lows[w]] == steps[highs[w]]
            means[w] = _masked_sum(outside, slabs[starts[w]]) / counts[w]
            dt = slabs[starts[w]]
            dt -= means[w, None]
            np.putmask(dt, outside, 0.0)
            spreads[w] = np.multiply(dt, dt, out=dt).sum(axis=1)
    for x in (edges, knots, times, slabs, steps):
        x.flags.writeable = False
    return _Windows(tie, edges, knots, times, width, slabs, steps)


def _slab(t, f1, centers, win):
    """The window of each of the ``centers`` (k, rows), in the rows of
    ``f1``, on the windows ``win`` of ``_windows``: as (id, count, outside,
    tr, i, fr, j), where ``tr[i]`` is a (k, rows, width) array of the times
    of the run of knots that holds each window, ``fr[j]`` one of their
    values and ``outside`` (k, rows, width) marks the knots of its run that
    the window does not hold.
    ``tr`` and ``fr`` are strided views of every run of ``width`` knots of
    ``t`` and of ``f1``'s flat rows, which must be C-contiguous float arrays
    (every caller's are), so no index array of a slab's size is built,
    ``f1`` is never written and a step may read a slab again rather than
    keep it.

    A window and its run follow from the centre and the times alone, so a
    row reads the same run in any batch.  Masked to its window and summed
    along its last axis, a slab gives the full-row masked sum bit for bit on
    runs of up to 128 knots: a window of at most two knots sums exactly in
    any order, and a wider one gets a run that starts on the multiple of 8
    at or below its first knot and ends n mod 8 knots past one, as the row
    does, so NumPy's pairwise sum groups its values as over the whole row
    (blocks of 8, then the row's last n mod 8 one by one).
    """
    n, rows = len(t), len(f1)
    w = win.edges.searchsorted(centers, side="right")
    count, i, *bounds = win.knots.take(w, axis=1)
    after_low, after_high = win.steps.take(bounds, axis=0)
    fr = np.ndarray((max(rows * n - win.width + 1, 0), win.width), float, f1, 0, (8, 8))
    return (w, count, after_low == after_high, win.slabs, i, fr,
            i + np.arange(0, rows * n, n))


def _masked_sum(outside, x):
    """The sum of ``x`` along its last axis with the elements where
    ``outside`` is true taken as 0, computed in place of ``x``.  They become
    +0.0 where a product with the window's mask would make the negative ones
    -0.0: adding a zero of either sign leaves any sum that is not itself
    zero the same."""
    np.putmask(x, outside, 0.0)
    return x.sum(axis=-1)


@functools.lru_cache(maxsize=4)
def _slots(n):
    """For each slot of a row of ``_runs``' flips on n knots, the run bound
    p it stands for, the stand-in's two slots becoming knot 0's bounds 0
    and 1, and whether that bound is an end of the data (0 or n)."""
    bound = np.arange(n + 3) % (n + 1)
    data_end = bound % n == 0
    for a in (bound, data_end):
        a.flags.writeable = False
    return bound, data_end


def _runs(t, f1, level):
    """Each run of knots at or above ``level`` (a knot on the level counts
    as above) in the rows of ``f1``, in row and time order, each row's last
    a stand-in run of knot 0 alone: the run's rise as a flat position in a
    (rows, n + 3) table, its bounds (i, j + 1) for knots i..j and its rising
    and falling end times.  An end at bound 0 or n is the data's end; any
    other is where the interpolant crosses the level, solved exactly on its
    segment."""
    n, rows = len(t), len(f1)
    # with a knot below the level padded on at each end and the stand-in's
    # flags (below, above, below) after them, a row's flag flips at p = i
    # and p = j + 1 for each run of knots i..j, in pairs, then at p = n + 1
    # and p = n + 2 for its stand-in
    above = np.zeros((rows, n + 4), dtype=bool)
    above[:, n + 2] = True
    np.greater_equal(f1, level, out=above[:, 1:n + 1])
    flips = (above[:, 1:] != above[:, :-1]).ravel().nonzero()[0]
    row, slot = np.divmod(flips, n + 3)
    bound, data_end = _slots(n)
    p = bound.take(slot)
    # the run ends where the segment from knot p - 1 to knot p meets the
    # level, exactly at t[p] when knot p is on it; the data's ends stand in
    # at p = 0 and p = n, where the clipped reads below are not used
    before = p - 1 + _PAIR  # knots p - 1 and p
    ga, gb = f1.take(row * n + before, mode="clip") - level
    ta, tb = t.take(before, mode="clip")
    ends = np.where(data_end.take(slot) | (gb == 0), tb,
                    _segment_zeros(ta, tb, ga, gb)).reshape(-1, 2)
    return flips[::2], p.reshape(-1, 2), ends


def _find_half_period(t, f1, level, fails):
    """The rising and the falling end of each row's longest run of the
    interpolant at or above ``level`` (see ``_runs``).

    On a sinusoid every such run is one half-period long and a run cut off
    by the data is shorter, so the longest run skips the short runs that
    noise makes near a crossing and never pairs two rising crossings.  A
    row whose longest run touches either end of the data fails.
    """
    n, rows = len(t), len(f1)
    rise, bounds, ends = _runs(t, f1, level)
    # each run's length at its rise in a table of the rows, -inf where no
    # run rises and at the stand-ins: a row's first longest run rises at
    # its row's first maximum, and a row with no other run finds its
    # stand-in, its first run from slot 0
    length = np.full((rows, n + 3), -np.inf)
    length.flat[rise] = ends[:, 1] - ends[:, 0]
    length[:, n + 1] = -np.inf
    first = rise.searchsorted(length.argmax(axis=1) + np.arange(0, rows * (n + 3), n + 3))
    crossings = ends.take(first, axis=0).T  # t1 and t2
    (t1, t2), (start, stop) = crossings, bounds.take(first, axis=0).T
    fails.check((start > 0) & (stop < n), "find_crossing",
                lambda r: f"the longest run at or above level {level}, "
                          f"[{t1[r]}, {t2[r]}], is cut off by the data range "
                          f"[{t[0]}, {t[-1]}]; no complete half-period")
    return crossings


def _refine_alpha_beta(t, f1, t1, t2, delta, fails):
    win = _windows(t.tobytes(), delta, True)
    t_lo, t_hi, tie = t[0], t[-1], win.tie
    t_maxval = (t1 + t2) / 2
    ends = np.array((t1, t2))
    below, above = (3 * ends - ends[::-1]) / 2
    # below the range and no room above: the range's start, clamped as
    # below < t_lo there
    t_minval = np.where(below >= t_lo - tie, below, np.where(
        above <= t_hi + tie, above, np.maximum(below, t_lo)))
    # both plateau means in one pass over the knots near either centre
    _, n, inside, _, _, fr, j = _slab(t, f1, np.array((t_minval, t_maxval)), win)
    n_min, n_max = n
    beta, top = _masked_sum(inside, fr[j]) / n
    fails.check((n_min > 0) & (n_max > 0), "refine_alpha_beta",
                lambda r: f"no grid points within {delta} of " + (
                    f"t_minval={t_minval[r]}" if n_min[r] == 0
                    else f"t_maxval={t_maxval[r]}"))
    return top - beta, beta, t_minval, t_maxval


def _refine_crossing_linear(t, f1, t_i, window, level, fails):
    """Refine each of the crossings ``t_i`` (k, rows) of every row at once;
    a row fails at its first crossing that fails, for the first reason.

    The closed-form least-squares line through each window's points comes
    from its knots' mean time and the spread of its times, looked up by its
    window (``_windows``), and from masked sums over its slab of values:
    the deviations dt of its times from their mean, zero outside the
    window, and its values, masked for their mean and then less it, for
    their products with dt.  Beside NumPy's buffers (``_BUFSIZE``) two
    slab-sized arrays are held at once."""
    win = _windows(t.tobytes(), window, False)
    w, n, outside, tr, i, fr, j = _slab(t, f1, t_i, win)
    t_mean, spread = win.times.take(w, axis=1)
    dt = tr[i]
    dt -= t_mean[..., None]
    np.putmask(dt, outside, 0.0)
    fs = fr[j]
    f_mean = _masked_sum(outside, fs) / n
    del outside  # before the broadcast's buffer
    # outside the window a value is now -f_mean and dt is 0, so their
    # product is a zero, as the unmasked value's is
    fs -= f_mean[..., None]
    slope = np.multiply(dt, fs, out=fs).sum(axis=2) / spread
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


def _trapezoid_integral(t, f1, t1, t2, level, fails, out=None):
    fails.check((t[0] <= t1) & (t1 < t2) & (t2 <= t[-1]), "trapezoid_integral",
                lambda r: f"limits [{t1[r]}, {t2[r]}] invalid for range "
                          f"[{t[0]}, {t[-1]}]")
    return _integral(t, f1, t1, t2, level, out)


def _integral(t, f1, t1, t2, level, out=None):
    """``_trapezoid_integral`` less its check of the limits."""
    rows, n = f1.shape
    g = np.subtract(f1, level, out=out)
    flat = g.reshape(-1)
    # both limits in one pass: whole panels to the knot k at or left of the
    # limit, k at most n - 2, plus a partial panel from it, whose values are
    # read first
    x = np.array((t1, t2))
    k = t[1:-1].searchsorted(x, side="right")
    at = k + np.arange(0, rows * n, n)
    (gk, gk1), (tk, tk1) = flat.take(at + _PAIR[:, None]), t.take(k + _PAIR[:, None])
    dx = x - tk
    w = dx / (tk1 - tk)
    partial = (gk + (gk * (1 - w) + gk1 * w)) / 2 * dx
    # then, in place of g, the running sums of each row's panels: column k
    # is the integral of the interpolant from t[0] to knot k + 1, and they
    # run only as far as the batch's last limit reads.  The panels are taken
    # over the flat rows, so each row's last column joins it to the next row
    # and is never read.  A panel is the sum of its ends times half its
    # width: halving the width rather than the sum is exact and saves a pass.
    np.add(flat[:-1], flat[1:], out=flat[:-1])
    half_widths = np.zeros(n)  # 0 in each row's last column
    np.subtract(t[1:], t[:-1], out=half_widths[:-1])
    half_widths /= 2
    g *= half_widths
    read = g[:, :k.max()]
    np.cumsum(read, axis=1, out=read)
    to = np.where(k > 0, flat.take(at - 1), 0) + partial
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

    ``times`` holds the finite, strictly increasing sample times shared by
    all rows, ``fractions`` one row of |1> fractions per dataset.  A failing
    row does not stop the batch; ``errors`` names the first step it failed
    and ``ok`` marks the rows that passed every step.

    Cost per row of n knots: O(n) for the minimum and maximum, the two
    normalizations, the flags of the knots at or above 1/2, the longest
    run's pick and the running sum of the integral's panels, which stops
    at the batch's last limit.  The half-period solves a crossing only at
    each run boundary (2 to 4 per row), and the plateau and crossing
    windows read only a slab of the knots they hold.  Which knots a
    centre's window holds, the run of knots that holds it, and, for the
    line fits, the mean and the spread of its times depend on the times
    alone: each is looked up in per-grid tables (``_windows``) that the
    first call on a grid builds.  A row's results do not depend on the
    batch it is in.

    Memory: ``fractions`` is only read.  Both normalizations and the
    integral's running sums are written into one (rows, n) float buffer.
    Beside it a call holds per-row values, at most two (2, rows, width)
    slab-sized arrays in the line fits, and NumPy's ufunc buffers, which
    it keeps to ``_BUFSIZE`` values each: 3.1 times the input's bytes on
    the protocol and 2.7 times on 50 low-shot rows of 127 times, which
    ``tests/test_workspace.py`` bounds at 3.5.  The per-grid tables hold
    O(n) values and at most four are kept.
    """
    t = np.ascontiguousarray(times, dtype=float)
    f = np.asarray(fractions, dtype=float)
    if t.ndim != 1 or len(t) < 2 or f.ndim != 2 or f.shape[1] != len(t):
        raise ValueError(f"need >= 2 times and one column of fractions per "
                         f"time, got times {t.shape} and fractions {f.shape}")
    # the slab widths divide by the least step; inside finite ends, a NaN
    # or an infinity breaks the order
    if not (math.isfinite(t[0]) and math.isfinite(t[-1]) and (t[1:] > t[:-1]).all()):
        raise ValueError("times must be finite and strictly increasing")
    fails = _Failures(len(f))
    # the workspace: both normalizations and the integral write it, and
    # ``f`` is only read
    f1 = np.empty(f.shape)
    with np.errstate(all="ignore"), _SmallBuffers():
        alpha1, beta1 = _rough_alpha_beta(f, fails)
        _normalize(f, alpha1, beta1, fails, out=f1)
        rough = _find_half_period(t, f1, LEVEL, fails)
        alpha5, beta5, t_minval, t_maxval = _refine_alpha_beta(
            t, f1, *rough, DELTA, fails)
        fails.check(alpha5 > 0, "refine_alpha_beta",
                    lambda r: f"refined amplitude {alpha5[r]} is not positive")
        # compose the normalized-scale refinement with the rough estimates so
        # the second normalization acts on raw fractions
        alpha_hat = alpha1 * alpha5
        beta_hat = beta1 + alpha1 * beta5
        _normalize(f, alpha_hat, beta_hat, fails, out=f1)
        t1_hat, t2_hat = _refine_crossing_linear(t, f1, rough, REFINE_WINDOW, LEVEL, fails)
        fails.check(t1_hat < t2_hat, "refine_crossing_linear",
                    lambda r: f"refined crossings out of order: "
                              f"{t1_hat[r]} >= {t2_hat[r]}")
        # the line fit checked that both crossings lie in the data's range
        # and the check above that they are in order, so the limits of
        # every row still ok pass the integral's check
        integral = _integral(t, f1, t1_hat, t2_hat, LEVEL, out=f1)
        fails.check(integral > 0, "trapezoid_integral",
                    lambda r: f"integral {integral[r]} is not positive")
        pi_hat = (t2_hat - t1_hat) / integral
    return RowEstimates(alpha_hat=alpha_hat, beta_hat=beta_hat, t1_hat=t1_hat,
                        t2_hat=t2_hat, integral_I=integral, pi_hat=pi_hat,
                        t_minval=t_minval, t_maxval=t_maxval,
                        errors=tuple(fails.errors), ok=fails.ok)


def estimate_pi(ds: Dataset) -> EstimateResult:
    """Run the full nine-step pipeline on one dataset."""
    return estimate_rows(ds.times(), ds.fractions()[None]).result(0)


_EPS = np.finfo(float).eps
_EDGES, _SIGNS = np.array([[0.0], [1.0]]), np.array([[1.0], [-1.0]])  # (e, s) of _edge


def _unconstrained(yc, ys, c2, s2, cs, mean_f, mean_cos, mean_sin):
    """Whether each rate is collinear, and u, v, k and r = |(u, v)| of its
    unconstrained least-squares curve k - u*cos(ct) - v*sin(ct), from sums
    over the times of the centred fractions y and the mean-centred cos/sin
    columns cc and ss (yc = sum y*cc, ys = sum y*ss, c2 = sum cc^2, s2 =
    sum ss^2, cs = sum cc*ss) and the means of f, cos and sin; the
    arguments broadcast.  Cramer's rule gives u and v, with u = v = 0 where
    det <= eps * (c2 + s2)^2: there the squared condition number exceeds
    1/eps and the solve carries no correct digits."""
    det = c2 * s2 - cs * cs
    scale = c2 + s2
    collinear = det <= _EPS * (scale * scale)
    det[collinear] = np.inf  # u = v = 0 there, and no warning
    u = (ys * cs - yc * s2) / det
    v = (yc * cs - ys * c2) / det
    return collinear, u, v, mean_f + u * mean_cos + v * mean_sin, np.hypot(u, v)


def _solve(yc, ys, c2, s2, cs, mean_f, mean_cos, mean_sin, n):
    """Whether each rate is collinear, and alpha, beta and phi0 of its best
    valid curve, from ``_unconstrained``'s sums on n times: its curve where
    the levels k -/+ r lie in [0, 1], else, where r > 0, ``_edge``'s levels
    at its phase."""
    collinear, u, v, k, r = _unconstrained(yc, ys, c2, s2, cs, mean_f, mean_cos, mean_sin)
    beta, high = k - r, k + r
    out = (beta < 0) | (high > 1)
    if out.any():
        out &= r > 0
        beta[out], high[out], _ = _edge(k[out], r[out], (u * yc + v * ys)[out] / n,
                                        np.where(out, mean_f, 0.0)[out])
    return collinear, high - beta, beta, np.arctan2(-v, u)


def _edge(k, r0, uy, mean_f):
    """The levels (k - r, k + r) of the least-squares curve at the phase of
    the unconstrained (k, r0) on the edge k = e + s*r, r in [0, 1/2], of the
    valid (k, r) that it crosses: (e, s) = (0, 1), beta = 0, or (1, -1),
    alpha + beta = 1; where it crosses both, the edge of lower RSS.  Then
    the rise of that curve's RSS over the unconstrained curve's, divided by
    the number of times n.  With uy = (u*yc + v*ys)/n and a = s*r0 - (k -
    mean_f), the RSS of e + r*(s - q), q the phase's unit sinusoid, is the
    unconstrained RSS plus n/r0^2 * ((r0*(e - mean_f) + r*a)^2 - uy*(r -
    r0)^2), least at r = r0*((mean_f - e)*a - uy) / (a^2 - uy)."""
    a = _SIGNS * r0 - (k - mean_f)
    r = np.minimum(np.maximum(r0 * ((mean_f - _EDGES) * a - uy) / (a * a - uy), 0.0), 0.5)
    rss = (r0 * (_EDGES - mean_f) + r * a) ** 2 - uy * (r - r0) ** 2
    top = (k + r0 > 1) & ((k >= r0) | (rss[1] < rss[0]))
    return (np.where(top, 1 - 2 * r[1], 0.0), np.where(top, 1.0, 2 * r[0]),
            np.where(top, rss[1], rss[0]) / (r0 * r0))


def _basis(c, t):
    """cos, sin and their centred cc and ss at the rates ``c`` (any shape)
    and times ``t`` (n,), each c.shape + (n,), then mean_cos, mean_sin, c2 =
    sum cc^2, s2 = sum ss^2 and cs = sum cc*ss over the times, each of the
    shape of ``c``: a rate's values depend on that rate and ``t`` alone."""
    n = len(t)
    ct = np.multiply.outer(c, t)
    cos, sin = np.cos(ct), np.sin(ct)
    mean_cos, mean_sin = cos.sum(axis=-1) / n, sin.sum(axis=-1) / n
    cc, ss = cos - mean_cos[..., None], sin - mean_sin[..., None]
    c2, s2 = (cc * cc).sum(axis=-1), (ss * ss).sum(axis=-1)
    cs = np.multiply(cc, ss, out=ct).sum(axis=-1)
    return cos, sin, cc, ss, mean_cos, mean_sin, c2, s2, cs


def _fit_at_rates(t, f, c):
    """RSS, alpha, beta and phi0 of the best valid curve at each rate in
    ``c`` (files, rates), the rates of each file of ``f`` (files, n), its
    fractions at the times ``t``; each output has the shape of ``c``.  The
    columns are ``_basis``'s, the curve is ``_solve``'s, and a collinear
    rate gets RSS inf.

    Every reduction is a sum over the last axis, the times, so a rate's
    outputs depend on that rate and its file alone, not on the other rates
    or files in the call, and no BLAS kernel (whose rounding varies with the
    CPU) is involved.

    The rate search calls it (through ``_fit_in_batches``) once per step,
    for three rates of each of its files still stepping, where the cost is
    per NumPy call, not per element.  So it uses
    reductions, ufuncs and in-place updates rather than ``mean`` and
    ``where``, each rounding as the plain formula does: a mean is NumPy's
    sum divided by the count, and (pred - f)^2 equals (f - pred)^2.  The
    search's path turns on every bit of the RSS, so any other rounding can
    change the fit.
    """
    cos, sin, cc, ss, mean_cos, mean_sin, c2, s2, cs = _basis(c, t)
    mean_f = f.sum(axis=1, keepdims=True) / len(t)
    y = (f - mean_f)[:, None, :]
    collinear, alpha, beta, phi0 = _solve((cc * y).sum(axis=2), (ss * y).sum(axis=2),
                                          c2, s2, cs, mean_f, mean_cos, mean_sin, len(t))
    half = alpha / 2
    # beta + half * (1 - cos(ct + phi0)) - f, expanded
    pred = (half * np.cos(phi0))[..., None] * cos
    np.subtract((beta + half)[..., None], pred, out=pred)
    sin *= (half * np.sin(phi0))[..., None]
    pred += sin
    pred -= f[:, None, :]
    pred *= pred
    rss = pred.sum(axis=2)
    rss[collinear] = np.inf
    return rss, alpha, beta, phi0


def _blocks(files, rates, n):
    """(files, rates) slices, rates outer, splitting fits on n times into
    blocks within ``_SCAN_CELLS`` (file, rate, time) cells, so long files
    cannot make one call's arrays huge: min(rates, _SCAN_CELLS // n) rates
    each, and as many files as fill the cells at that, at least one of
    each.  A block's rates do not depend on the number of files."""
    per = max(1, min(rates, _SCAN_CELLS // n))
    group = max(1, _SCAN_CELLS // (per * n))
    for j in range(0, rates, per):
        for i in range(0, files, group):
            yield slice(i, min(i + group, files)), slice(j, min(j + per, rates))


def _fit_in_batches(t, f, c):
    """``_fit_at_rates`` for the files ``f`` (files, n) at their rates ``c``
    (files, rates), one call per block of ``_blocks``; a lone block's
    outputs are returned as they are."""
    blocks = list(_blocks(len(f), c.shape[1], len(t)))
    if len(blocks) == 1:
        return _fit_at_rates(t, f, c)
    out = np.empty((4,) + c.shape)
    for rows, ks in blocks:
        for o, b in zip(out, _fit_at_rates(t, f[rows], c[rows, ks])):
            o[rows, ks] = b
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _columns(tkey, step, k0, count):
    """``_basis`` less cos and sin at the rates (k0 + 1 ... k0 + count) *
    step and the float64 times whose bytes are ``tkey``, with cc and ss as
    one (2, count, n) array.  They depend on the times alone, so every scan
    on one grid shares them; the cache keeps the last chunk only, and the
    arrays are read-only, as every caller gets the same ones."""
    _, _, cc, ss, *sums = _basis(step * np.arange(k0 + 1, k0 + count + 1),
                                 np.frombuffer(tkey))
    columns = (np.stack((cc, ss)), *sums)
    for a in columns:
        a.flags.writeable = False
    return columns


def _scan(t, f, step):
    """The index k - 1 of the best of the rates k * step, k = 1 ... 2n - 3,
    for each row of ``f`` (files, n), the first on a tie.  Each block of
    ``_blocks`` takes its columns from ``_columns`` and each file's sums of
    y cc and y ss, y the centred fractions, as ``_fit_at_rates`` does, so
    ``_unconstrained`` gets the kernel's own inputs.  Both sums come from
    one product: two half-size products in turn kept glibc's mmap threshold
    low enough that ``report`` mapped and faulted in ≈100 pages on every
    call.

    A rate's curve is ``_solve``'s, and its RSS comes in closed form from
    the same sums, with no residual matrix: the unconstrained curve's, yy +
    u*yc + v*ys with yy = sum y^2, plus ``_edge``'s rise where a level
    leaves [0, 1]; a collinear rate gets RSS inf.  It rounds otherwise than
    ``_fit_at_rates``'s, so the scan serves only to choose each row's search
    bracket."""
    n, count = len(t), 2 * len(t) - 3
    tkey = np.asarray(t, dtype=float).tobytes()
    mean_f = f.sum(axis=1, keepdims=True) / n
    y = f - mean_f
    yy = (y * y).sum(axis=1, keepdims=True)
    rss = np.empty((len(f), count))
    for rows, ks in _blocks(len(f), count, n):
        ccss, mean_cos, mean_sin, c2, s2, cs = _columns(tkey, step, ks.start,
                                                        ks.stop - ks.start)
        yc, ys = (ccss[:, None] * y[rows, None, :]).sum(axis=3)
        collinear, u, v, k, r = _unconstrained(yc, ys, c2, s2, cs, mean_f[rows],
                                               mean_cos, mean_sin)
        uy = u * yc + v * ys
        block = yy[rows] + uy
        out = ((k - r < 0) | (k + r > 1)) & (r > 0)
        if out.any():
            block[out] += n * _edge(k[out], r[out], uy[out] / n,
                                    np.where(out, mean_f[rows], 0.0)[out])[2]
        rss[rows, ks] = np.where(collinear, np.inf, block)
    return rss.argmin(axis=1)


def _too_few_times(t) -> PipelineError:
    return PipelineError("fit_model", f"need >= 4 times to fit 4 parameters, "
                                      f"got {len(t)}")


def _brackets(t, f):
    """The rate search's bracket of each row of ``f`` (files, n), the
    fractions of files sharing the times ``t``: its best scan rate -/+ one
    scan step, as (lo, hi).  One ``_scan`` picks every file's best rate on
    the kernel's columns of the times, kept for the next scan
    (``_columns``)."""
    step = math.pi / (2 * (t[-1] - t[0]))
    best = step * (_scan(t, f, step) + 1)
    return best - step, best + step


def _refine(t, f, lo, hi):
    """Alpha, beta, phi0 and c of the fit of each row of ``f`` within its
    bracket [lo, hi]: one ``minimize_on_bracket``, its steps starting at
    the bracket's middle, one ``_fit_in_batches`` call per step for the
    files still stepping, three rates each."""
    res = optimize.minimize_on_bracket(
        lambda c, rows: _fit_in_batches(t, f.take(rows, axis=0), c), lo, hi)
    _, alpha, beta, phi0 = res.out
    return alpha, beta, phi0, res.x


def _fit_rows(t, f):
    """The fit of each row of ``f`` (files, n), the fractions of files
    sharing the times ``t``; no row may be constant and n must be >= 4.
    ``fit_model`` is this on one row.

    One scan picks every file's bracket (``_brackets``), then one search
    refines every file's rate within it (``_refine``).  Returns alpha,
    beta, phi0 and c, one value per file, each the same bits in any batch.
    """
    return _refine(t, f, *_brackets(t, f))


def fit_model(ds: Dataset) -> NoiseModel:
    """Least-squares fit of all four curve parameters to the fractions.

    Variable projection (Golub & Pereyra 1973): amplitude, offset and phase
    are closed-form at each of the < 2n rates c in quarter-period steps over
    the span below the mean Nyquist rate pi (n - 1) / span.  ``_scan``
    evaluates that scan on the kernel's cos/sin columns, which depend on
    the times alone, so they are built only when the times differ from the
    last scan's: the screen, fit and plot of one file share them.  The best
    scan rate is then refined within one step by
    ``optimize.minimize_on_bracket``: finite-difference Newton steps of
    three rates per kernel call from the best scan rate (four or five on
    most files), each narrowing a bracket that the next step bisects where
    a parabolic step would not make progress.  The levels and
    phase are the kernel's at the rate it returns: the best levels in
    [0, 1] at the least-squares curve's phase, which keeps the RSS smooth
    in the rate.  The search is looked up as the module global ``optimize``
    on every call, so a caller may rebind it (a tracer counting the rates
    evaluated does).
    At a fixed rate the offset-plus-sinusoid least-squares problem is
    solved on mean-centred cos/sin columns, as in the floating-mean
    periodogram (Zechmeister & Kuerster, A&A 496, 577, 2009).  Raises
    ``PipelineError`` on fewer than 4 times, where any of many curves fits
    exactly, and on constant data.  The file is fitted as a batch of one
    (``_fit_rows``), so a batch of files on the same times gives it the
    same bits.
    """
    t, f = ds.times(), ds.fractions()
    if len(t) < 4:
        raise _too_few_times(t)
    if f.min() == f.max():
        raise PipelineError("fit_model", "all fractions are equal; no rate")
    alpha, beta, phi0, c = _fit_rows(t, f[None])
    return NoiseModel(alpha=float(alpha[0]), beta=float(beta[0]),
                      phi0=float(phi0[0]), c=float(c[0]))


@dataclass(frozen=True)
class ScreenVerdict:
    """Outcome of dataset screening; ``reason``/``location`` set on rejection."""

    accepted: bool
    reason: str = ""
    location: float | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _jump_threshold(t, shots, c):
    """The largest jump the screen allows between each pair of adjacent
    times of each row, files at the times ``t`` with the shot counts
    ``shots`` (files, n), each at its rate in ``c`` (files,): c*dt/2 plus 5
    binomial standard deviations at p = 1/2.  Each value rises with c."""
    return (c[:, None] * np.diff(t) / 2
            + 5 * np.sqrt(0.25 / np.minimum(shots[:, :-1], shots[:, 1:])))


def _jump_verdicts(t, f, shots, c) -> list:
    """The jump screen's verdict on each row of ``f`` (files, n), files at
    the times ``t`` with the shot counts ``shots`` (files, n), each at its
    fitted rate in ``c`` (files,)."""
    jump = np.abs(np.diff(f, axis=1))
    threshold = _jump_threshold(t, shots, c)
    over = jump > threshold
    verdicts = []
    for r, i in enumerate(over.argmax(axis=1)):  # the first jump over, if any
        if not over[r, i]:
            verdicts.append(ScreenVerdict(accepted=True))
            continue
        verdicts.append(ScreenVerdict(
            accepted=False,
            reason=(f"fraction jump {jump[r, i]:.4f} between t={t[i]} and "
                    f"t={t[i + 1]} exceeds threshold {threshold[r, i]:.4f}"),
            location=float(t[i + 1]),
        ))
    return verdicts


def screen_dataset(ds: Dataset) -> ScreenVerdict:
    """Reject datasets whose fractions jump more than the model plus noise allow.

    Between adjacent times the model probability can change by at most
    c*dt/2, c being ``fit_model``'s rate; on top of that we allow 5
    binomial standard deviations at the worst case p = 1/2.  A larger jump
    indicates a calibration step.  This is ``screen_rows`` on one row, so
    most clean files are accepted without the rate search; raises the
    ``PipelineError`` of a file too short to fit.
    """
    verdict, = screen_rows(ds.times(), ds.fractions()[None], ds.shots[None])
    if isinstance(verdict, PipelineError):
        raise verdict
    return verdict


def screen_rows(times, fractions, shots) -> tuple:
    """The jump screen (see ``screen_dataset``) on every row of
    ``fractions`` (files, n).

    The rows are files sharing the strictly increasing ``times`` (n,), and
    ``shots`` (files, n) holds their shot counts.  Raises ``ValueError`` on
    times that are not finite and strictly increasing, on fractions that
    are not finite and on shot counts below 1.  Each row gets the verdict
    it gets alone, the jump screen at ``fit_model``'s rate, with the same
    bits, or the ``PipelineError`` of a file too short to fit; a constant
    row is accepted.

    One ``_scan`` picks every row's search bracket (``_brackets``).  The
    search never evaluates a rate below a bound set by that bracket alone,
    and the threshold rises with the rate, so a row whose every jump is
    within the threshold at that bound is accepted with no search, as most
    clean files are.  The other rows, files with a step and the few clean
    files near the threshold, are refined together by one rate search
    (``_refine``), and their verdicts come from the rate it returns.
    """
    t, f = np.asarray(times, dtype=float), np.asarray(fractions, dtype=float)
    shots = np.asarray(shots)
    if t.ndim != 1 or len(t) < 2 or f.ndim != 2 or f.shape[1] != len(t) \
            or shots.shape != f.shape:
        raise ValueError(f"need >= 2 times and one column of fractions and of shots "
                         f"per time, got times {t.shape}, fractions {f.shape} and "
                         f"shots {shots.shape}")
    if not (np.isfinite(t).all() and np.all(t[1:] > t[:-1])):
        raise ValueError("times must be finite and strictly increasing")
    if not np.isfinite(f).all():
        raise ValueError("fractions must be finite")
    if not np.all(shots >= 1):
        raise ValueError("shots must be >= 1")
    moving = np.flatnonzero(f.min(axis=1) != f.max(axis=1))
    verdicts = [ScreenVerdict(accepted=True)] * len(f)
    if len(t) < 4:
        for r in moving:
            verdicts[r] = _too_few_times(t)
    elif len(moving):
        f, shots = f[moving], shots[moving]
        lo, hi = _brackets(t, f)
        # The search returns one of the points it evaluates, each c - e or
        # above with its centre c >= lo and e = DX * (hi - lo).  Rounding is
        # monotone, so no fitted rate lies below ``least``, computed as the
        # search computes c - e, and no threshold below the one at
        # ``least``: a row with no jump over that one is accepted.
        least = lo - optimize.DX * (hi - lo)
        jump = np.abs(np.diff(f, axis=1))
        near = np.flatnonzero((jump > _jump_threshold(t, shots, least)).any(axis=1))
        if len(near):
            c = _refine(t, f[near], lo[near], hi[near])[3]
            for r, v in zip(moving[near], _jump_verdicts(t, f[near], shots[near], c)):
                verdicts[r] = v
    return tuple(verdicts)
