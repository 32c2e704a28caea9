"""Minimise functions of one variable on brackets, many points per call.

The fit refines the rates of a batch of files, one bracket per file, with
one ``minimize_on_bracket``; ``fit_model`` fits a batch of one.  Its kernel
spends most of a call on per-call NumPy overhead (on a 64-point file, 33
rates cost about 2.4 times one rate and 3 rates about 1.2 times), so every
call of the search asks for the points of all its brackets at once, and it
makes as few calls as it can.  One round of 33 evenly spaced points finds
each minimum to within a spacing; from the minimum of the quartic through
the five values around the best, finite-difference Newton steps, three
points per bracket and call, then converge quadratically where the function
is smooth.  Each step also narrows a bracket around the minimum, and where
a parabolic step would not make progress the next point bisects that
bracket instead: the safeguard of Brent's method (Algorithms for
Minimization without Derivatives, 1973) and of ``rtsafe`` (Press et al.,
Numerical Recipes), which keeps the search to a few steps where the
function is not smooth.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Minimum", "minimize_on_bracket"]

POINTS = 33  # evaluated per bracket in the round
XTOL = 1e-10  # steps stop once one is at most this share of the bracket
DX = 1e-5  # a step evaluates c and c -/+ this share of the bracket
_GRID = np.arange(POINTS, dtype=float)
_STENCIL = np.array([-1.0, 0.0, 1.0])


@dataclass(frozen=True)
class Minimum:
    """The minimum found in each bracket, the lowest point of its last step
    or the edge its round found, ``fun``'s outputs there, as evaluated, one
    value per bracket each, and the number of points evaluated over all
    brackets."""

    x: np.ndarray
    out: tuple
    nfev: int


def _start(y, i):
    """Where a bracket's steps start, in round spacings from its best point
    i of the round's values y: the minimum of the quartic through the five
    values around y[i], by Newton's method from the vertex of the parabola
    through y[i - 1:i + 2], or that vertex where the quartic has no minimum
    within one spacing of i.  y[i] must be an inner value, lower than its
    neighbours by a finite positive curvature."""
    y0, y1, y2 = y[i - 1:i + 2]
    u = (y0 - y2) / (2 * (y0 - 2 * y1 + y2))
    m = min(max(i, 2), POINTS - 3)
    a, b, c, d, e = y[m - 2:m + 3]
    # the quartic's derivatives at m, exact for five evenly spaced values
    g1, g2 = (a - 8 * b + 8 * d - e) / 12, (16 * (b + d) - 30 * c - a - e) / 12
    g3, g4 = (e - a) / 2 + b - d, a + e - 4 * (b + d) + 6 * c
    v = u + i - m
    for _ in range(3):
        slope = g2 + v * (g3 + v * g4 / 2)
        if not 0 < slope < math.inf:
            return u
        v -= (g1 + v * (g2 + v * (g3 / 2 + v * g4 / 6))) / slope
    return v + m - i if abs(v + m - i) < 1 else u


def minimize_on_bracket(fun, lo, hi) -> Minimum:
    """Minimise ``fun`` on each bracket [lo, hi] by one even grid, then
    bracketed Newton steps.

    ``lo`` and ``hi`` have shape (k,), one bracket per row.  ``fun(x, rows)``
    takes the points x (len(rows), m) of the rows ``rows`` (indices into
    lo) and returns a tuple of arrays of that shape, the first of which is
    minimised; ``x`` and ``out`` hold one value per row.  Each point's
    outputs must not depend on the other points in the call.

    The round evaluates ``POINTS`` evenly spaced points of every bracket in
    one call.  A row whose best point is at an edge of [lo, hi] returns
    that point with the round's outputs.  Every other row keeps the two
    spacings around its best as the bracket [a, b] and steps from the point
    ``_start`` finds where the round's three values around the best have a
    finite positive curvature, and from the best point otherwise.

    Each step evaluates c - e, c and c + e, e being ``DX`` of hi - lo, in
    one call for all rows still stepping.  The end of [a, b] on the side
    of the higher of c - e and c + e moves to c.  The row is done when the
    two are equal and finite, when the vertex of the parabola through the
    three points is at most ``XTOL`` of hi - lo from c, or when b - a is at
    most 2e, the span of the three points; its result is the lowest of the
    three, c on a tie, with the outputs there.
    Otherwise c moves to that vertex, clamped to [a, b], where the parabola
    has a finite positive curvature and the move is under half the step
    before it (Brent's test of progress), and to the midpoint of [a, b]
    where not.  So a row converges quadratically where ``fun`` is smooth,
    and every step either bisects its bracket or is under half the step
    before it, so it ends where ``fun`` is not smooth too.  hi - lo must be
    far above the float spacing at lo and hi.  A row's result is the same
    bits in any batch.
    """
    rows = list(range(len(lo)))
    width = (hi - lo).tolist()
    h = (hi - lo) / (POINTS - 1)
    # np.linspace(lo, hi, POINTS, axis=-1), bit for bit
    x = _GRID * h[:, None] + lo[:, None]
    x[:, -1] = hi
    out = fun(x, rows)
    nfev = x.size
    best = [None] * len(rows)  # per row, once it is done: its point and outputs
    steps = {}  # per row stepping: its point c, its bracket a, b and the last step
    for r, i in enumerate(out[0].argmin(axis=1).tolist()):
        if i in (0, POINTS - 1):
            best[r] = x[r, i], tuple(o[r, i] for o in out)
            continue
        y = out[0][r].tolist()
        c = x[r, i]
        if 0 < y[i - 1] - 2 * y[i] + y[i + 1] < math.inf:
            c += h[r] * _start(y, i)
        steps[r] = c, x[r, i - 1], x[r, i + 1], math.inf
    while steps:
        stepping = list(steps)
        ce = np.array([(steps[r][0], DX * width[r]) for r in stepping])
        x = _STENCIL * ce[:, 1:] + ce[:, :1]
        out = fun(x, stepping)
        nfev += x.size
        for j, (r, e, (y0, y1, y2)) in enumerate(zip(
                stepping, ce[:, 1].tolist(), out[0].tolist())):
            c, a, b, last = steps.pop(r)
            if y0 > y2:
                a = c
            else:
                b = c
            curv = y0 - 2 * y1 + y2
            d = e * (y0 - y2) / (2 * curv) if 0 < curv < math.inf else math.nan
            if y0 == y2 < math.inf or abs(d) <= XTOL * width[r] or b - a <= 2 * e:
                k = 1 if y1 <= min(y0, y2) else 0 if y0 < y2 else 2
                best[r] = x[j, k], tuple(o[j, k] for o in out)
            elif abs(d) < last / 2:
                steps[r] = min(max(c + d, a), b), a, b, abs(d)
            else:
                mid = (a + b) / 2
                steps[r] = mid, a, b, abs(mid - c)
    return Minimum(np.array([b[0] for b in best]),
                   tuple(np.array(o) for o in zip(*(b[1] for b in best))), nfev)
