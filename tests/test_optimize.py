import math

import numpy as np
import pytest

from rabipi.optimize import DX, minimize_on_bracket


#: Calls after which a search counts as one that does not end.
RUNAWAY = 100
#: Points per round of ``rounds_only``.
POINTS = 33


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


def v_shape(x):
    # a V: the parabolas through three points that straddle its kink are no
    # guide to its minimum, 1.234567
    return (np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2,)


def power_2_5(x):
    # |x - 0.4|^2.5: its curvature vanishes at the minimum, and each
    # parabolic step cuts the distance to it to a third only
    return (np.abs(x - 0.4) ** 2.5,)


class TestMinimizeOnBracket:
    def test_finds_smooth_minimum_and_its_outputs(self):
        # not a parabola, so the last step is not exact by construction
        res = search(lambda x: (-np.cos(x - 0.3), 2 * x), -1.0, 2.0)
        assert res.x.shape == res.out[0].shape == res.out[1].shape == (1,)
        assert res.x[0] == pytest.approx(0.3, abs=1e-9)
        assert res.out[0][0] == pytest.approx(-math.cos(res.x[0] - 0.3), abs=1e-15)
        assert res.out[1][0] == 2 * res.x[0]

    @pytest.mark.parametrize("sign, edge", [(1.0, 0.5), (-1.0, 2.0)])
    def test_minimum_at_an_edge_ends_within_e_of_it(self, sign, edge):
        # a line: no parabola has a finite positive curvature, so the
        # bracket bisects toward the edge until it is no wider than 2e
        sizes = []
        res = search(recorded(lambda x: (sign * x,), sizes), 0.5, 2.0)
        assert abs(res.x[0] - edge) <= DX * (2.0 - 0.5)
        assert res.out[0][0] == sign * res.x[0]
        assert set(sizes) == {3} and len(sizes) <= 17

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
        # steps of three points, from the middle of the bracket
        assert set(sizes) == {3} and 2 <= len(sizes) <= 4

    @pytest.mark.parametrize("fun, lo, hi, xmin", [
        (lambda x: (-np.cos(x - 0.3),), -1.0, 2.0, 0.3),
        # 2 (x - 0.7) + 4 x^3 = 0
        (lambda x: ((x - 0.7) ** 2 + x ** 4,), 0.0, 1.0,
         float(np.roots([4, 0, 2, -1.4])[2].real)),
        (lambda x: (np.exp(x) - 3 * x,), 0.0, 2.0, math.log(3)),
        (lambda x: (np.cosh(4 * (x - 5.123)),), 4.0, 6.0, 5.123),
    ], ids=["cos", "quartic", "exp", "cosh"])
    def test_smooth_minimum_takes_a_few_steps(self, fun, lo, hi, xmin):
        sizes = []
        res = search(recorded(fun, sizes), lo, hi)
        assert set(sizes) == {3} and len(sizes) <= 4
        assert res.x[0] == pytest.approx(xmin, abs=1e-9 * (hi - lo))

    def test_parabola_converges_in_three_steps(self):
        # the first step's three points lie on the parabola, so its vertex
        # is the minimum but for the rounding of the finite-difference
        # curvature; the second step's vertex is the minimum, and the third
        # step there finds no move left
        centres = []

        def fun(x):
            centres.append(x[0, 1])
            return ((x - 0.7) ** 2,)

        res = search(fun, 0.0, 1.0)
        assert len(centres) == 3 and centres[0] == 0.5
        assert centres[1] == pytest.approx(0.7, abs=1e-7)
        assert res.x[0] == pytest.approx(0.7, abs=1e-12)

    def test_steps_stay_within_the_bracket(self):
        # a V, so the parabolas through the steps' points are no guide: the
        # first one's vertex, -3.8, lies past the bracket's end, so the
        # second step is clamped to that end
        centres = []

        def fun(x):
            centres.append(x[0, 1])
            return v_shape(x)

        search(fun, -1.0, 4.0)
        assert centres[:2] == [1.5, -1.0]
        assert all(-1.0 <= c <= 4.0 for c in centres)

    def test_a_parabolic_step_may_follow_a_bisection(self):
        # the minimum, 0.01, lies near the bracket's far end.  The second
        # step's move fails the halving test, so the third point bisects
        # [0, 0.2525]; that counts as a step of the whole bracket, so the
        # fourth step's parabolic move of 0.105 is taken, not a second
        # bisection
        centres = []

        def fun(x):
            centres.append(x[0, 1])
            return ((x - 0.01) ** 2 + 2 * (x - 0.01) ** 4,)

        res = search(fun, 0.0, 1.0)
        assert centres[2] == centres[1] / 2
        assert centres[3] != centres[2] / 2 and abs(centres[3] - 0.01) < 0.011
        assert len(centres) <= 6
        assert res.x[0] == pytest.approx(0.01, abs=1e-9)


class TestFailedSteps:
    """Where a function is not smooth at its minimum, the parabolas through
    the steps' points miss it: the steps converge slowly, or fail and the
    bracket they keep bisects.  The search still ends within e = ``DX`` of
    hi - lo of the minimum, as rounds alone do, in a few steps of three
    points: once the bracket is no wider than 2e, or where a failed step's
    centre is the lowest of its three points."""

    @pytest.mark.parametrize("fun, lo, hi, xmin, calls", [
        (kinked, 0.0, 1.0, 0.4, 4),
        (v_shape, -4.0, 7.0, 1.234567, 17),
        (power_2_5, 0.0, 1.0, 0.4, 11),
    ], ids=["kinked", "v_shape", "power_2_5"])
    def test_ends_within_e_of_the_minimum(self, fun, lo, hi, xmin, calls):
        e = DX * (hi - lo)
        assert abs(rounds_only(fun, lo, hi) - xmin) <= e
        sizes = []
        res = search(recorded(fun, sizes), lo, hi)
        assert abs(res.x[0] - xmin) <= e
        assert set(sizes) == {3} and len(sizes) <= calls
        assert res.nfev == sum(sizes)

    def test_steps_that_do_not_halve_bisect(self):
        # the V's first step, at the bracket's middle 1.5, lies right of its
        # kink, where the three points are all but collinear: the parabola's
        # vertex, -3.8, is far off but the first move has no step before it
        # to halve.  The second step's vertex lies past 1.5, a move not
        # under half the first, so the third point bisects [-3.8, 1.5], and
        # the fourth [-1.15, 1.5]
        centres = []

        def fun(x):
            centres.append(x[0, 1])
            return v_shape(x)

        search(fun, -4.0, 7.0)
        assert centres[0] == 1.5 and centres[1] == pytest.approx(-3.8, abs=1e-6)
        assert centres[2] == (centres[1] + 1.5) / 2
        assert centres[3] == (centres[2] + 1.5) / 2

    def test_a_failed_step_whose_centre_is_lowest_ends_the_row(self):
        # a curvature jump of 25 at the minimum, 0.3: the second step lands
        # within 4e-8 of it, and the third, within e, is lower than both its
        # neighbours, though its parabola's move is not under half the
        # second's.  The row ends there; bisecting instead would move off
        # toward 1 and take 14 calls more to end 1.3e from the minimum
        sizes = []
        res = search(recorded(lambda x: (np.where(x < 0.3, 1.0, 25.0) * (x - 0.3) ** 2,),
                              sizes), 0.0, 1.0)
        assert len(sizes) == 3
        assert abs(res.x[0] - 0.3) <= DX

    def test_no_positive_curvature_ends_where_the_points_are_level(self):
        # flat within 1e-4 of 0.3, where the second step's points lie: c - e
        # and c + e are equal, so the search ends at c
        def fun(x):
            return (np.maximum((x - 0.3) ** 2, 1e-8),)

        sizes = []
        res = search(recorded(fun, sizes), 0.0, 1.0)
        assert sizes == [3, 3]
        assert abs(res.x[0] - 0.3) <= 1e-4 and res.out[0][0] == 1e-8


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
        # flat row; 4: inf past its minimum, 1.5; 5: a kink in a wider
        # bracket; 6: a jump in curvature at the minimum
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
    HI = np.array([2.0, 2.0, 2.0, 1.0, 2.25, 7.0, 1.0])

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
        e = DX * (self.HI - self.LO)
        # best at lo and at hi
        assert abs(vec.x[1] - 0.5) <= e[1] and abs(vec.x[2] - 2.0) <= e[2]
        assert vec.x[0] == pytest.approx(0.3, abs=1e-9)

    def test_steps_of_three_for_every_row(self):
        calls = []
        inner = _rows_of(self.row_fun)

        def fun(x, rows):
            calls.append((x, list(rows)))
            return inner(x, rows)

        res = minimize_on_bracket(fun, self.LO, self.HI)
        # every row steps from the middle of its bracket, three points each
        # per call; the flat row 3 leaves after its first step, its points
        # level.  Row 4 bisects toward 1.5, as inf beyond it leaves no
        # finite curvature there, and it ends below 1.5, where its values
        # are finite
        assert calls[0][1] == list(range(7))
        assert calls[0][0][:, 1].tolist() == ((self.LO + self.HI) / 2).tolist()
        assert all(x.shape == (len(rows), 3) for x, rows in calls)
        assert calls[1][1] == [0, 1, 2, 4, 5, 6]
        assert res.x[3] == 0.5
        e = DX * (self.HI[4] - self.LO[4])
        assert 1.5 - 2 * e <= res.x[4] < 1.5 and res.out[0][4] == -res.x[4]

    def test_a_row_leaves_once_its_own_stop_is_met(self):
        # row 1, a parabola, leaves after three steps; row 0, whose minimum
        # is at the edge 0, and row 2, a V, bisect until their brackets are
        # no wider than 2e, the V's a step later
        rows_seen = []

        def fun(x, rows):
            rows_seen.append(list(rows))
            assert len(rows_seen) < RUNAWAY, "the search does not end"
            row = np.array(rows)[:, None]
            return (np.where(row == 0, x, np.where(row == 1, (x - 0.55) ** 2,
                                                   np.abs(x - 0.55))),)

        res = minimize_on_bracket(fun, np.zeros(3), np.ones(3))
        assert rows_seen == [[0, 1, 2]] * 3 + [[0, 2]] * 13 + [[2]]
        assert abs(res.x[0]) <= DX and res.x[1] == pytest.approx(0.55, abs=1e-12)
        assert abs(res.x[2] - 0.55) <= DX
        assert res.nfev == 3 * (3 * 3 + 2 * 13 + 1)
