"""Minimise functions of one variable on brackets, many points per call.

The fit refines the rates of a batch of files, one bracket per file, with
one ``minimize_on_bracket``; ``fit_model`` fits a batch of one.  Its kernel
spends most of a call on per-call NumPy overhead (on a 64-point file, 3
rates cost about 1.05 times one rate), so every call of the search asks for
the points of all its brackets at once, and it makes as few calls as it
can.  From the middle of each bracket, finite-difference Newton steps,
three points per bracket and call, converge quadratically where the
function is smooth.  Each step also narrows the bracket around the
minimum, and where a parabolic step would not make progress the next point
bisects that bracket instead: the safeguard of Brent's method (Algorithms
for Minimization without Derivatives, 1973) and of ``rtsafe`` (Press et
al., Numerical Recipes), which keeps the search to a few steps where the
function is not smooth.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Minimum", "minimize_on_bracket"]

XTOL = 1e-10  # steps stop once one is at most this share of the bracket
DX = 1e-5  # a step evaluates c and c -/+ this share of the bracket


@dataclass(frozen=True)
class Minimum:
    """The minimum found in each bracket, the lowest point of its last
    step, ``fun``'s outputs there, as evaluated, one value per bracket
    each, and the number of points evaluated over all brackets."""

    x: np.ndarray
    out: tuple
    nfev: int


def minimize_on_bracket(fun, lo, hi) -> Minimum:
    """Minimise ``fun`` on each bracket [lo, hi] by bracketed Newton steps.

    ``lo`` and ``hi`` have shape (k,), one bracket per row.  ``fun(x, rows)``
    takes the points x (len(rows), m) of the rows ``rows`` (indices into
    lo, in increasing order) and returns a tuple of arrays of that shape,
    the first of which is minimised; ``x`` and ``out`` hold one value per
    row.  Each point's outputs must not depend on the other points in the
    call.

    Every row starts at c = (lo + hi) / 2 with the bracket [a, b] = [lo, hi].
    Each step evaluates c - e, c and c + e, e being ``DX`` of hi - lo, in
    one call for all rows still stepping, so a step may reach e past the
    bracket.  The end of [a, b] on the side of the higher of c - e and
    c + e moves to c.  The row is done when the two are equal and finite,
    when the vertex of the parabola through the three points is at most
    ``XTOL`` of hi - lo from c, or when b - a is at most 2e, the span of
    the three points; its result is the lowest of the three, c on a tie,
    with the outputs there.  Otherwise c moves to that vertex, clamped to
    [a, b], where the parabola has a finite positive curvature and the move
    is under half the step before it (Brent's test of progress).  Where not,
    a row whose c is the lowest of its three points, and finite, ends at c,
    the minimum lying within e of it, and every other row's c moves to the
    midpoint of [a, b], a step of the whole bracket, as Brent's ``fmin``
    counts a golden-section step.  So a row converges quadratically where
    ``fun`` is smooth, and every step either bisects its bracket or is
    under half the step before it, so it ends where ``fun`` is not smooth
    too.  hi - lo must be far above the float spacing at lo and hi.  A
    row's result is the same bits in any batch.
    """
    width = (hi - lo).tolist()
    best = [None] * len(width)  # per row, once it is done: its point and outputs
    # per row stepping: its point c, its bracket a, b and the last step
    steps = {r: ((a + b) / 2, a, b, math.inf)
             for r, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))}
    nfev = 0
    while steps:
        # the rows still stepping stay in increasing order: each step pops
        # every one of them and puts back, in turn, those that go on
        stepping = list(steps)
        ce = [(steps[r][0], DX * width[r]) for r in stepping]
        # each row's c - e, c and c + e, each rounded once, in one array
        x = np.array([(c - e, c, c + e) for c, e in ce])
        out = fun(x, stepping)
        nfev += x.size
        for j, (r, (_, e), (y0, y1, y2)) in enumerate(zip(stepping, ce, out[0].tolist())):
            c, a, b, last = steps.pop(r)
            if y0 > y2:
                a = c
            else:
                b = c
            curv = y0 - 2 * y1 + y2
            d = e * (y0 - y2) / (2 * curv) if 0 < curv < math.inf else math.nan
            low = y1 <= min(y0, y2)
            if y0 == y2 < math.inf or abs(d) <= XTOL * width[r] or b - a <= 2 * e:
                k = 1 if low else 0 if y0 < y2 else 2
                best[r] = x[j, k], tuple(o[j, k] for o in out)
            elif abs(d) < last / 2:
                steps[r] = min(max(c + d, a), b), a, b, abs(d)
            elif low and y1 < math.inf:
                best[r] = x[j, 1], tuple(o[j, 1] for o in out)
            else:
                steps[r] = (a + b) / 2, a, b, b - a
    return Minimum(np.array([b[0] for b in best]),
                   tuple(np.array(o) for o in zip(*(b[1] for b in best))), nfev)
