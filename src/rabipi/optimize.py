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
is smooth.  Where a step fails, the bracket zooms in on finer rounds
instead, as Brent's method keeps a bracketing step as the safeguard of its
parabolic ones (Brent, Algorithms for Minimization without Derivatives,
1973).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Minimum", "minimize_on_bracket"]

POINTS = 33  # evaluated per round; the next round spans 2 of the 32 spacings
RTOL = 1e-5  # rounds stop once the spacing is at most this share of the bracket
XTOL = 1e-10  # steps stop once one is at most this share of the bracket
DX = 1e-5  # a step evaluates c and c -/+ this share of the bracket
STEPS = 6  # steps a bracket may take before it zooms in instead
_GRID = np.arange(POINTS, dtype=float)
_STENCIL = np.array([-1.0, 0.0, 1.0])


@dataclass(frozen=True)
class Minimum:
    """The minimum found in each bracket, where the last step converged or
    the rounds ended, ``fun``'s outputs there, as evaluated, one value per
    bracket each, and the number of points evaluated over all brackets."""

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
    parabolic steps.

    ``lo`` and ``hi`` have shape (k,), one bracket per row.  ``fun(x, rows)``
    takes the points x (len(rows), m) of the rows ``rows`` (indices into
    lo) and returns a tuple of arrays of that shape, the first of which is
    minimised; ``x`` and ``out`` hold one value per row.  Each point's
    outputs must not depend on the other points in the call.

    The first round evaluates ``POINTS`` evenly spaced points of every
    bracket in one call.  A bracket whose best point is inner and lower
    than its two neighbours by a finite positive curvature then takes steps
    from the point ``_start`` finds: each step evaluates c - e, c and c + e,
    e being ``DX`` of the first hi - lo, and moves c to the vertex of the
    parabola through them, clamped to the two spacings around the round's
    best.  Once a step is at most ``XTOL`` of the first hi - lo, the result
    is c, with the outputs there.  A step fails when its three points have
    no finite positive curvature, when it is not under half the step before
    it (Brent's test of progress), or when it is the bracket's
    ``STEPS``-th.  The bracket then zooms in from the two spacings around
    the round's best, as one whose round gave no steps does.  Each round of
    zooming evaluates ``POINTS`` points of every such bracket and keeps the
    two spacings around the best (one at an edge of [lo, hi]), until the
    spacing h is at most ``RTOL`` of the first hi - lo.  A best point at an
    edge of [lo, hi] is returned as the last round found it.  Otherwise the
    parabola through it and its two neighbours, all three from the last
    round, has its vertex within h/2 of the best point; the vertices of all
    such brackets are evaluated in one more call and each kept if it is
    lower.  So a bracket that zooms gets the result of rounds alone.  Each
    loop makes one call for all brackets stepping and one for all brackets
    zooming.  hi - lo must be far above the float spacing at lo and hi.  A
    row's result is the same bits in any batch.
    """
    lo, hi = lo.tolist(), hi.tolist()
    width = [b - a for a, b in zip(lo, hi)]
    # per row, once it is done: the best point, the outputs there and, if
    # it zoomed, its last spacing and, when the best point is inner, its
    # first output and its neighbours'
    best = [None] * len(lo)
    steps = {}  # per row stepping: its point c, steps taken, c's clamps, the last step
    rows = list(range(len(lo)))  # zooming
    nfev = 0
    first = True
    while rows or steps:
        if steps:
            stepping = list(steps)
            ce = np.array([(steps[r][0], DX * width[r]) for r in stepping])
            x = _STENCIL * ce[:, 1:] + ce[:, :1]
            out = fun(x, stepping)
            nfev += x.size
            for j, (r, e, (y0, y1, y2)) in enumerate(zip(
                    stepping, ce[:, 1].tolist(), out[0].tolist())):
                c, taken, (a, b), last = steps.pop(r)
                curv = y0 - 2 * y1 + y2
                if 0 < curv < math.inf:
                    d = e * (y0 - y2) / (2 * curv)
                    if abs(d) <= XTOL * width[r]:
                        best[r] = x[j, 1], tuple(o[j, 1] for o in out), None, None
                        continue
                    if taken + 1 < STEPS and abs(d) < last / 2:
                        steps[r] = min(max(c + d, a), b), taken + 1, (a, b), abs(d)
                        continue
                lo[r], hi[r] = a, b  # the step failed: zoom in instead
                rows.append(r)
        if not rows:
            continue
        h = [(hi[r] - lo[r]) / (POINTS - 1) for r in rows]
        # np.linspace(lo, hi, POINTS, axis=-1), bit for bit
        h_lo = np.array([(hr, lo[r]) for hr, r in zip(h, rows)])
        x = _GRID * h_lo[:, :1] + h_lo[:, 1:]
        x[:, -1] = [hi[r] for r in rows]
        out = fun(x, rows)
        nfev += x.size
        zooming = []
        for j, (r, i) in enumerate(zip(rows, out[0].argmin(axis=1).tolist())):
            ys = out[0][j, i - 1:i + 2].tolist() if 0 < i < POINTS - 1 else None
            if h[j] <= RTOL * width[r]:
                best[r] = x[j, i], tuple(o[j, i] for o in out), h[j], ys
                continue
            kept = x[j, max(i - 1, 0)], x[j, min(i + 1, POINTS - 1)]
            if first and ys and 0 < ys[0] - 2 * ys[1] + ys[2] < math.inf:
                c = x[j, i] + h[j] * _start(out[0][j].tolist(), i)
                steps[r] = c, 0, kept, math.inf
            else:
                lo[r], hi[r] = kept
                zooming.append(r)
        rows = zooming
        first = False
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
    return Minimum(np.array([b[0] for b in best]),
                   tuple(np.array(o) for o in zip(*(b[1] for b in best))), nfev)
