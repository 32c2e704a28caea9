"""Minimise functions of one variable on brackets, many points per call.

``fit_model`` refines its rate with ``minimize_on_bracket``, and ``report``
refines the rates of all its files with one such search.  Its kernel spends
most of a call on per-call NumPy overhead (on a 64-point file, 33 rates cost
about 2.4 times one rate, and 3 files of 33 rates about 0.65 times three
such calls), so a search that asks for a batch of points per round, for
every bracket at once, needs fewer calls and less time than a
one-point-at-a-time method such as Brent's run bracket by bracket.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Minimum", "minimize_on_bracket"]

POINTS = 33  # evaluated per round; the next round spans 2 of the 32 spacings
RTOL = 1e-5  # rounds stop once the spacing is at most this share of the bracket
_STEPS = np.arange(POINTS, dtype=float)


@dataclass(frozen=True)
class Minimum:
    """The best point of each bracket, ``fun``'s outputs there and the
    number of points evaluated over all brackets."""

    x: float | np.ndarray
    out: tuple
    nfev: int


def minimize_on_bracket(fun, lo, hi) -> Minimum:
    """Minimise ``fun`` on [lo, hi] by zooming in on the best of even grids.

    With scalar ``lo`` and ``hi``, ``fun`` takes a 1-D array of points and
    returns a tuple of arrays of the same length, the first of which is
    minimised; ``x`` and the outputs in ``out`` are scalars.  With arrays
    ``lo`` and ``hi`` of shape (k,), one bracket per row, ``fun(x, rows)``
    takes the points x (len(rows), m) of the rows ``rows`` (indices into
    lo) and returns arrays of that shape; ``x`` and ``out`` hold one value
    per row.  Each point's outputs must not depend on the other points in
    the call.

    Each round evaluates ``POINTS`` evenly spaced points of every bracket
    still searching in one call and keeps the two spacings around the best
    (one at an edge of [lo, hi]), so a bracket shrinks 16 times or more;
    hi - lo must be far above the float spacing at lo and hi.  A row stops
    once its spacing h is at most ``RTOL`` of its first hi - lo.  A best
    point at an edge of [lo, hi] is returned as the last round found it.
    Otherwise the parabola through it and its two neighbours, all three
    from the row's last round, has its vertex within h/2 of the best point;
    the vertices of all such rows are evaluated in one more call and each
    kept if it is lower.  A row's result is the same bits in any batch.
    """
    scalar = np.ndim(lo) == 0
    if scalar:
        one = fun

        def fun(x, rows):
            return tuple(o[None] for o in one(x[0]))

    lo, hi = np.ravel(lo).tolist(), np.ravel(hi).tolist()
    stop = [RTOL * (b - a) for a, b in zip(lo, hi)]
    # per row, from its last round: the best point, the outputs there, the
    # spacing and, when the best point is inner, its first output and its
    # neighbours'
    best = [None] * len(lo)
    rows = list(range(len(lo)))
    nfev = 0
    while rows:
        h = [(hi[r] - lo[r]) / (POINTS - 1) for r in rows]
        # np.linspace(lo, hi, POINTS, axis=-1), bit for bit
        h_lo = np.array([(hr, lo[r]) for hr, r in zip(h, rows)])
        x = _STEPS * h_lo[:, :1] + h_lo[:, 1:]
        x[:, -1] = [hi[r] for r in rows]
        out = fun(x, rows)
        nfev += x.size
        searching = []
        for j, (r, i) in enumerate(zip(rows, out[0].argmin(axis=1).tolist())):
            if h[j] <= stop[r]:
                ys = out[0][j, i - 1:i + 2].tolist() if 0 < i < POINTS - 1 else None
                best[r] = x[j, i], tuple(o[j, i] for o in out), h[j], ys
            else:
                lo[r], hi[r] = x[j, max(i - 1, 0)], x[j, min(i + 1, POINTS - 1)]
                searching.append(r)
        rows = searching
    vertex = []  # (row, the parabola's vertex, the row's best first output)
    for r, (xb, _, h, ys) in enumerate(best):
        if ys is not None:
            y0, y1, y2 = ys
            curv = y0 - 2 * y1 + y2  # y1 is the lowest, so |y0 - y2| <= curv
            if 0 < curv < math.inf:
                vertex.append((r, xb + h * (y0 - y2) / (2 * curv), y1))
    if vertex:
        rows, xp, y1 = zip(*vertex)
        outp = fun(np.array(xp)[:, None], list(rows))
        nfev += len(xp)
        for j, r in enumerate(rows):
            if outp[0][j, 0] < y1[j]:
                best[r] = xp[j], tuple(o[j, 0] for o in outp), None, None
    if scalar:
        return Minimum(float(best[0][0]), best[0][1], nfev)
    return Minimum(np.array([b[0] for b in best]),
                   tuple(np.array(o) for o in zip(*(b[1] for b in best))), nfev)
