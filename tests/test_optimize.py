import math

import numpy as np
import pytest

import rabipi.optimize
from rabipi.optimize import POINTS, RTOL, STEPS, minimize_on_bracket


def search(fun, lo, hi):
    """``minimize_on_bracket`` on the one bracket [lo, hi] of ``fun``, a
    function of the points alone, element by element."""
    return minimize_on_bracket(lambda x, rows: fun(x), np.array([lo]),
                               np.array([hi]))


def rounds_only(fun, lo, hi):
    """Reference for a bracket that zooms from its first round on, and for
    one whose steps fail: rounds of ``POINTS`` points, each keeping the two
    spacings around the best, down to a spacing of ``RTOL`` of hi - lo, then
    the vertex of the last round's best three if it is lower.  Returns x,
    the outputs there and the number of points evaluated."""
    stop, nfev = RTOL * (hi - lo), 0
    while True:
        x, h = np.linspace(lo, hi, POINTS), (hi - lo) / (POINTS - 1)
        out = fun(x)
        nfev += POINTS
        i = int(np.argmin(out[0]))
        if h <= stop:
            break
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, POINTS - 1)]
    best = x[i], tuple(o[i] for o in out)
    if 0 < i < POINTS - 1:
        y0, y1, y2 = out[0][i - 1:i + 2]
        curv = y0 - 2 * y1 + y2
        if 0 < curv < math.inf:
            xp = x[i] + h * (y0 - y2) / (2 * curv)
            outp = fun(np.array([xp]))
            nfev += 1
            if outp[0][0] < y1:
                best = xp, tuple(o[0] for o in outp)
    return best[0], best[1], nfev


def same_bits(res, ref):
    """``search``'s one-row result against ``rounds_only``'s."""
    return (res.x.tobytes() == np.float64(ref[0]).tobytes()
            and all(a.tobytes() == np.float64(b).tobytes()
                    for a, b in zip(res.out, ref[1])))


def recorded(fun, sizes):
    """``fun``, appending the number of points of each call to ``sizes``."""
    def wrapped(x):
        sizes.append(x.size)
        return fun(x)
    return wrapped


def kinked(x):
    # C1 with a curvature jump at its minimum, 0.4: the parabola through
    # three points on both sides of it has its vertex off the minimum
    return np.where(x < 0.4, 1.0, 9.0) * (x - 0.4) ** 2, x


class TestMinimizeOnBracket:
    def test_finds_smooth_minimum_and_its_outputs(self):
        # not a parabola, so the last step is not exact by construction
        res = search(lambda x: (-np.cos(x - 0.3), 2 * x), -1.0, 2.0)
        assert res.x.shape == res.out[0].shape == res.out[1].shape == (1,)
        assert res.x[0] == pytest.approx(0.3, abs=1e-9)
        assert res.out[0][0] == pytest.approx(-math.cos(res.x[0] - 0.3), abs=1e-15)
        assert res.out[1][0] == 2 * res.x[0]

    @pytest.mark.parametrize("sign, edge", [(1.0, 0.5), (-1.0, 2.0)])
    def test_minimum_at_an_edge_returns_the_edge(self, sign, edge):
        sizes = []

        def fun(x):
            sizes.append(x.size)
            return (sign * x,)

        res = search(fun, 0.5, 2.0)
        assert res.x[0] == edge
        assert res.out[0][0] == sign * edge
        # a best point at an edge takes no step: rounds only, and the last
        # round's outputs are returned, no call following it
        assert sizes == [POINTS] * len(sizes)

    def test_deterministic(self):
        def fun(x):
            return (np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2,)

        first, again = search(fun, 0.0, 3.0), search(fun, 0.0, 3.0)
        assert again.x.tobytes() == first.x.tobytes()
        assert again.out[0].tobytes() == first.out[0].tobytes()
        assert again.nfev == first.nfev

    def test_nfev_counts_every_point(self):
        sizes = []
        res = search(recorded(lambda x: ((x - 0.7) ** 2 + x ** 4,), sizes),
                     0.0, 1.0)
        assert res.nfev == sum(sizes)
        # one round, then steps of three points
        assert sizes == [POINTS] + [3] * (len(sizes) - 1)
        assert 1 <= len(sizes) - 1 <= STEPS

    @pytest.mark.parametrize("fun, lo, hi, xmin", [
        (lambda x: (-np.cos(x - 0.3),), -1.0, 2.0, 0.3),
        # 2 (x - 0.7) + 4 x^3 = 0
        (lambda x: ((x - 0.7) ** 2 + x ** 4,), 0.0, 1.0,
         float(np.roots([4, 0, 2, -1.4])[2].real)),
        (lambda x: (np.exp(x) - 3 * x,), 0.0, 2.0, math.log(3)),
        (lambda x: (np.cosh(4 * (x - 5.123)),), 4.0, 6.0, 5.123),
    ])
    def test_smooth_minimum_takes_one_round_and_a_few_steps(self, fun, lo, hi, xmin):
        sizes = []
        res = search(recorded(fun, sizes), lo, hi)
        assert sizes[0] == POINTS and set(sizes[1:]) == {3}
        assert len(sizes) - 1 <= 3
        assert res.x[0] == pytest.approx(xmin, abs=1e-9 * (hi - lo))

    def test_parabola_takes_one_step(self):
        # the quartic through the round's five best values is the parabola,
        # so the first step finds its start already at the minimum
        sizes = []
        res = search(recorded(lambda x: ((x - 0.7) ** 2,), sizes), 0.0, 1.0)
        assert sizes == [POINTS, 3]
        assert res.x[0] == pytest.approx(0.7, abs=1e-12)

    def test_steps_stay_within_the_rounds_two_spacings(self):
        # a V, so the parabolas through the steps' points are no guide
        xs = []

        def fun(x):
            xs.append(x)
            return (np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2,)

        search(fun, -4.0, 7.0)
        first, h = xs[0][0], 11.0 / (POINTS - 1)
        best = first[np.argmin(fun(first)[0])]
        centres = [x[0, 1] for x in xs if x.size == 3]
        assert centres and all(best - h <= c <= best + h for c in centres)


class TestFailedSteps:
    """A bracket whose step fails zooms in from its first round's two
    spacings, so it gets the bits of a search of rounds alone."""

    def test_a_kink_at_the_minimum_ends_within_rtol(self):
        # the steps' three points straddle the kink once they near it, so
        # their parabolas miss the minimum; the search must still end as
        # close as rounds alone would
        res = search(kinked, 0.0, 1.0)
        assert abs(res.x[0] - 0.4) <= RTOL
        assert res.out[0][0] <= rounds_only(kinked, 0.0, 1.0)[1][0]

    def test_no_positive_curvature_falls_back_to_rounds(self):
        # flat within 1e-4 of 0.5, where the steps' points lie
        def fun(x):
            return (np.maximum((x - 0.5) ** 2, 1e-8),)

        sizes = []
        res = search(recorded(fun, sizes), 0.0, 1.0)
        assert sizes[:3] == [POINTS, 3, POINTS]
        assert same_bits(res, rounds_only(fun, 0.0, 1.0))

    def test_steps_that_do_not_halve_fall_back_to_rounds(self):
        # a V: the second step is not under half the first
        def fun(x):
            return (np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2,)

        sizes = []
        res = search(recorded(fun, sizes), -4.0, 7.0)
        ref = rounds_only(fun, -4.0, 7.0)
        assert sizes == [POINTS, 3, 3, POINTS, POINTS, POINTS, 1]
        assert same_bits(res, ref)
        assert res.nfev == ref[2] + 3 * 2

    def test_steps_that_do_not_converge_fall_back_to_rounds(self):
        # |x - 0.4|^2.5: each step cuts the distance to the minimum to a
        # third, too slowly to converge within STEPS steps
        def fun(x):
            return (np.abs(x - 0.4) ** 2.5,)

        sizes = []
        res = search(recorded(fun, sizes), 0.0, 1.0)
        ref = rounds_only(fun, 0.0, 1.0)
        assert sizes == [POINTS] + [3] * STEPS + [POINTS] * 3 + [1]
        assert same_bits(res, ref)
        assert res.nfev == ref[2] + 3 * STEPS


def _rows_of(fun):
    """``fun`` of one bracket's points as a ``fun(x, rows)`` of many: row r
    of x is evaluated as ``fun(x[j], r)`` would be alone."""
    def batched(x, rows):
        outs = [fun(xr, r) for xr, r in zip(x, rows)]
        return tuple(np.array(o) for o in zip(*outs))
    return batched


class TestVectorBrackets:
    """One bracket per row: each row must be its search alone, a batch of
    one bracket, bit for bit."""

    @staticmethod
    def row_fun(x, r):
        # row 0: smooth inner minimum; 1: best at lo; 2: best at hi; 3: a
        # flat row, whose first point is its best; 4: inf beside the best,
        # so no finite curvature; 5: a kink in a wider bracket; 6: a kink
        # at the minimum, where the steps fail
        if r == 0:
            y = -np.cos(x - 0.3)
        elif r == 1:
            y = x.copy()
        elif r == 2:
            y = -x
        elif r == 3:
            y = np.zeros_like(x)
        elif r == 4:
            y = np.where(x > 1.5, np.inf, -x)
        elif r == 5:
            y = np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2
        else:
            y = kinked(x)[0]
        return y, 2 * x + r

    LO = np.array([-1.0, 0.5, 0.5, 0.0, 0.0, -4.0, 0.0])
    HI = np.array([2.0, 2.0, 2.0, 1.0, 1.5 + 1.5 / 32 * 16, 7.0, 1.0])

    def test_each_row_is_its_scalar_search(self):
        vec = minimize_on_bracket(_rows_of(self.row_fun), self.LO, self.HI)
        nfev = 0
        for r, (lo, hi) in enumerate(zip(self.LO, self.HI)):
            one = search(lambda x, r=r: self.row_fun(x, r), lo, hi)
            assert vec.x[r].tobytes() == one.x.tobytes(), r
            for a, b in zip(vec.out, one.out):
                assert a[r].tobytes() == b.tobytes(), r
            nfev += one.nfev
        assert vec.nfev == nfev
        assert vec.x[1] == 0.5 and vec.x[2] == 2.0  # best at lo and at hi
        assert vec.x[0] == pytest.approx(0.3, abs=1e-9)

    def test_vertex_only_for_inner_rows_with_finite_positive_curvature(self):
        calls = []
        inner = _rows_of(self.row_fun)

        def fun(x, rows):
            calls.append((x.shape, list(rows)))
            return inner(x, rows)

        minimize_on_bracket(fun, self.LO, self.HI)
        # rows 0, 5 and 6 step; rows 1 to 4 zoom, and so do rows 5 and 6
        # once their steps fail.  A best point at an edge (rows 1, 2, 3) or
        # beside inf (4) gets no vertex; rows 5 and 6 share one call of one
        # point each
        assert calls[0] == ((7, POINTS), list(range(7)))
        assert calls[-1] == ((2, 1), [5, 6])
        assert all(shape[1] in (3, POINTS) for shape, _ in calls[:-1])
        stepped = [set(rows) for shape, rows in calls if shape[1] == 3]
        assert stepped[0] == {0, 5, 6}
        assert all(rows <= {0, 5, 6} for rows in stepped)

    def test_a_row_leaves_once_its_own_stop_is_met(self, monkeypatch):
        # rows that zoom: a round keeps 1/32 of a bracket whose best is at an
        # edge and 1/16 of one whose best is inner.  At RTOL = 1e-4 the edge
        # row (0) stops after 3 rounds, the inner one (1), whose best is
        # beside inf in every round, after 4.
        monkeypatch.setattr(rabipi.optimize, "RTOL", 1e-4)
        rows_seen = []

        def fun(x, rows):
            rows_seen.append(list(rows))
            return (np.where(np.array(rows)[:, None] == 0, x,
                             np.where(x > 0.55, np.inf, (x - 0.55) ** 2)),)

        res = minimize_on_bracket(fun, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert rows_seen == [[0, 1]] * 3 + [[1]]  # no vertex beside inf
        assert res.x[0] == 0.0 and res.x[1] == pytest.approx(0.55, abs=1e-5)
        assert res.nfev == 7 * POINTS
