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
    same length, the first of which is minimised; each point's outputs must
    not depend on the other points in the call.  Each round evaluates
    ``POINTS`` evenly spaced points in one call and keeps the two spacings
    around the best (one at an edge of [lo, hi]), so the bracket shrinks 16
    times or more; hi - lo must be far above the float spacing at lo and hi.
    Rounds stop once the spacing h is at most ``RTOL`` of hi - lo.  A best
    point at an edge of [lo, hi] is returned as the last round found it.
    Otherwise the parabola through it and its two neighbours, all three
    from the last round, has its vertex within h/2 of the best point; the
    vertex is evaluated alone and kept if it is lower.
    """
    stop = RTOL * (hi - lo)
    nfev = 0
    while True:
        x = np.linspace(lo, hi, POINTS)
        out = fun(x)
        nfev += POINTS
        i = int(out[0].argmin())
        h = float(hi - lo) / (POINTS - 1)
        if h <= stop:
            break
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, POINTS - 1)]
    best = float(x[i]), tuple(o[i] for o in out)
    if 0 < i < POINTS - 1:
        y0, y1, y2 = out[0][i - 1:i + 2].tolist()
        curv = y0 - 2 * y1 + y2  # y1 is the lowest, so |y0 - y2| <= curv
        if 0 < curv < math.inf:
            xp = best[0] + h * (y0 - y2) / (2 * curv)
            outp = fun(np.array([xp]))
            nfev += 1
            if outp[0][0] < y1:
                best = xp, tuple(o[0] for o in outp)
    return Minimum(*best, nfev)
