"""Minimise a function of one variable on a bracket, many points per call.

``fit_model`` refines its rate with ``minimize_on_bracket``.  Its kernel
spends most of a call on per-call NumPy overhead (on a 64-point file, 33
rates cost about 2.4 times one rate), so a search that asks for a batch of
points per round needs fewer calls and less time than a one-point-at-a-time
method such as Brent's.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Minimum", "minimize_on_bracket"]

POINTS = 33  # evaluated per round; the next round spans 2 of the 32 spacings
RTOL = 1e-5  # rounds stop once the spacing is at most this share of the bracket


@dataclass(frozen=True)
class Minimum:
    """The best point found, ``fun``'s outputs there and the points evaluated."""

    x: float
    out: tuple
    nfev: int


def minimize_on_bracket(fun, lo: float, hi: float) -> Minimum:
    """Minimise ``fun`` on [lo, hi] by zooming in on the best of even grids.

    ``fun`` takes a 1-D array of points and returns a tuple of arrays of the
    same length, the first of which is minimised.  Each round evaluates
    ``POINTS`` evenly spaced points in one call and keeps the two spacings
    around the best (one at an edge of [lo, hi]), so the bracket shrinks 16
    times or more; hi - lo must be far above the float spacing at lo and hi.
    Rounds stop once the spacing h is at most ``RTOL`` of hi - lo.  The best
    point and its neighbours at +-h/2 are then evaluated in a call of their
    own, so the result does not depend on how a batched ``fun`` rounds a
    point among many.  The vertex of the parabola through those three, where
    it lies between them, is evaluated last and kept if it is lower.  A best
    point at an edge of [lo, hi] is evaluated alone and returned.
    """
    stop = RTOL * (hi - lo)
    nfev = 0
    while True:
        x = np.linspace(lo, hi, POINTS)
        i = int(fun(x)[0].argmin())
        nfev += POINTS
        h = float(hi - lo) / (POINTS - 1)
        if h <= stop:
            break
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, POINTS - 1)]
    x = np.array([x[i] - h / 2, x[i], x[i] + h / 2] if 0 < i < POINTS - 1
                 else [x[i]])
    out = fun(x)
    nfev += len(x)
    j = int(out[0].argmin())
    best = float(x[j]), tuple(o[j] for o in out)
    if len(x) == 3:
        y0, y1, y2 = out[0].tolist()
        curv = y0 - 2 * y1 + y2
        if 0 < curv < math.inf and abs(y0 - y2) <= 2 * curv:  # vertex in [x0, x2]
            xp = float(x[1]) + h / 2 * (y0 - y2) / (2 * curv)
            outp = fun(np.array([xp]))
            nfev += 1
            if outp[0][0] < out[0][j]:
                best = xp, tuple(o[0] for o in outp)
    return Minimum(*best, nfev)
