import math

import numpy as np
import pytest

from rabipi.optimize import DX, POINTS, minimize_on_bracket


#: Calls after which a search counts as one that does not end.
RUNAWAY = 100


def search(fun, lo, hi):
    """``minimize_on_bracket`` on the one bracket [lo, hi] of ``fun``, a
    function of the points alone, element by element; a search that makes
    ``RUNAWAY`` calls fails rather than runs on."""
    calls = []

    def one(x, rows):
        calls.append(x.size)
        assert len(calls) < RUNAWAY, "the search does not end"
        return fun(x)

    return minimize_on_bracket(one, np.array([lo]), np.array([hi]))


def rounds_only(fun, lo, hi):
    """The accuracy reference for a function that is not smooth at its
    minimum: rounds of ``POINTS`` points, each keeping the two spacings
    around the best, down to a spacing of e = ``DX`` of hi - lo, then the
    vertex of the last round's best three if it is lower.  Returns that
    point."""
    stop = DX * (hi - lo)
    while True:
        x, h = np.linspace(lo, hi, POINTS), (hi - lo) / (POINTS - 1)
        y = fun(x)[0]
        i = int(np.argmin(y))
        if h <= stop:
            break
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, POINTS - 1)]
    if 0 < i < POINTS - 1:
        curv = y[i - 1] - 2 * y[i] + y[i + 1]
        if 0 < curv < math.inf:
            xp = x[i] + h * (y[i - 1] - y[i + 1]) / (2 * curv)
            if fun(np.array([xp]))[0][0] < y[i]:
                return xp
    return x[i]


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
        assert 1 <= len(sizes) - 1 <= 3

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


def v_shape(x):
    # a V: the parabolas through three points that straddle its kink are no
    # guide to its minimum, 1.234567
    return (np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2,)


def power_2_5(x):
    # |x - 0.4|^2.5: its curvature vanishes at the minimum, and each
    # parabolic step cuts the distance to it to a third only
    return (np.abs(x - 0.4) ** 2.5,)


class TestFailedSteps:
    """Where a function is not smooth at its minimum, the parabolas through
    the steps' points miss it: the steps converge slowly, or fail and the
    bracket they keep bisects.  The search still ends within e = ``DX`` of
    hi - lo of the minimum, as rounds alone do, in one round and a few
    steps of three points, once that bracket is no wider than 2e."""

    @pytest.mark.parametrize("fun, lo, hi, xmin, calls", [
        (kinked, 0.0, 1.0, 0.4, 5),
        (v_shape, -4.0, 7.0, 1.234567, 14),
        (power_2_5, 0.0, 1.0, 0.4, 8),
    ], ids=["kinked", "v_shape", "power_2_5"])
    def test_ends_within_e_of_the_minimum(self, fun, lo, hi, xmin, calls):
        e = DX * (hi - lo)
        assert abs(rounds_only(fun, lo, hi) - xmin) <= e
        sizes = []
        res = search(recorded(fun, sizes), lo, hi)
        assert abs(res.x[0] - xmin) <= e
        assert sizes[0] == POINTS and set(sizes[1:]) == {3}
        assert len(sizes) <= calls
        assert res.nfev == sum(sizes)

    def test_steps_that_do_not_halve_bisect(self):
        # the V's first step lies left of its kink, where the three points
        # are all but collinear: the parabola's vertex is far off, so the
        # second step stops at the bracket's right end, the round's point
        # 1.5.  The step after that would not be under half the second, so
        # the third point bisects the bracket the first two leave
        centres = []

        def fun(x):
            if x.size == 3:
                centres.append(x[0, 1])
            return v_shape(x)

        search(fun, -4.0, 7.0)
        assert centres[0] < 1.234567 and centres[1] == 1.5
        assert centres[2] == (centres[0] + centres[1]) / 2

    def test_no_positive_curvature_ends_where_the_points_are_level(self):
        # flat within 1e-4 of 0.5, where the step's points lie: c - e and
        # c + e are equal, so the search ends at c
        def fun(x):
            return (np.maximum((x - 0.5) ** 2, 1e-8),)

        sizes = []
        res = search(recorded(fun, sizes), 0.0, 1.0)
        assert sizes == [POINTS, 3]
        assert abs(res.x[0] - 0.5) <= 1e-4 and res.out[0][0] == 1e-8


def _rows_of(fun):
    """``fun`` of one bracket's points as a ``fun(x, rows)`` of many: row r
    of x is evaluated as ``fun(x[j], r)`` would be alone.  A search that
    makes ``RUNAWAY`` calls fails rather than runs on."""
    calls = []

    def batched(x, rows):
        calls.append(len(rows))
        assert len(calls) < RUNAWAY, "the search does not end"
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
        # so no finite curvature; 5: a kink in a wider bracket; 6: a jump
        # in curvature at the minimum
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

    def test_one_round_then_steps_of_three_for_inner_rows(self):
        calls = []
        inner = _rows_of(self.row_fun)

        def fun(x, rows):
            calls.append((x, list(rows)))
            return inner(x, rows)

        res = minimize_on_bracket(fun, self.LO, self.HI)
        # one call of the round for every row; a best point at an edge
        # (rows 1, 2, 3) is the row's result.  The inner rows step, three
        # points each per call; row 4 from its best point, as inf beside it
        # leaves no finite curvature, and it ends below 1.5, where its
        # values are finite
        assert calls[0][0].shape == (7, POINTS) and calls[0][1] == list(range(7))
        assert all(x.shape == (len(rows), 3) for x, rows in calls[1:])
        assert calls[1][1] == [0, 4, 5, 6]
        assert all(set(rows) <= {0, 4, 5, 6} for _, rows in calls[1:])
        assert calls[1][0][1, 1] == 21 * 2.25 / 32
        e = DX * (self.HI[4] - self.LO[4])
        assert 1.5 - 2 * e <= res.x[4] < 1.5 and res.out[0][4] == -res.x[4]

    def test_a_row_leaves_once_its_own_stop_is_met(self):
        # row 0's best is at an edge, so it leaves after the round; row 1, a
        # parabola, after one step; row 2, a V, bisects for nine steps more
        rows_seen = []

        def fun(x, rows):
            rows_seen.append(list(rows))
            assert len(rows_seen) < RUNAWAY, "the search does not end"
            row = np.array(rows)[:, None]
            return (np.where(row == 0, x, np.where(row == 1, (x - 0.55) ** 2,
                                                   np.abs(x - 0.55))),)

        res = minimize_on_bracket(fun, np.zeros(3), np.ones(3))
        assert rows_seen == [[0, 1, 2], [1, 2]] + [[2]] * 9
        assert res.x[0] == 0.0 and res.x[1] == pytest.approx(0.55, abs=1e-12)
        assert abs(res.x[2] - 0.55) <= DX
        assert res.nfev == 3 * POINTS + 3 * 2 + 3 * 9
