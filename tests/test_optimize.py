import math

import numpy as np
import pytest

import rabipi.optimize
from rabipi.optimize import POINTS, minimize_on_bracket


class TestMinimizeOnBracket:
    def test_finds_smooth_minimum_and_its_outputs(self):
        # not a parabola, so the last step is not exact by construction
        res = minimize_on_bracket(lambda x: (-np.cos(x - 0.3), 2 * x), -1.0, 2.0)
        assert res.x == pytest.approx(0.3, abs=1e-9)
        assert res.out[0] == pytest.approx(-math.cos(res.x - 0.3), abs=1e-15)
        assert res.out[1] == 2 * res.x

    @pytest.mark.parametrize("sign, edge", [(1.0, 0.5), (-1.0, 2.0)])
    def test_minimum_at_an_edge_returns_the_edge(self, sign, edge):
        sizes = []

        def fun(x):
            sizes.append(len(x))
            return (sign * x,)

        res = minimize_on_bracket(fun, 0.5, 2.0)
        assert res.x == edge
        assert res.out == (sign * edge,)
        # the last round's outputs are returned; no call follows it
        assert sizes == [POINTS] * len(sizes)

    def test_deterministic(self):
        def fun(x):
            return (np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2,)

        first = minimize_on_bracket(fun, 0.0, 3.0)
        assert minimize_on_bracket(fun, 0.0, 3.0) == first

    def test_nfev_counts_every_point(self):
        sizes = []

        def fun(x):
            sizes.append(len(x))
            return ((x - 0.7) ** 2 + x ** 4,)

        res = minimize_on_bracket(fun, 0.0, 1.0)
        assert res.nfev == sum(sizes)
        # batched rounds, then the vertex of the last round's best three
        assert sizes == [POINTS] * (len(sizes) - 1) + [1]


def _rows_of(fun):
    """``fun`` of one bracket's points as a ``fun(x, rows)`` of many: row r
    of x is evaluated as ``fun(x[j], r)`` would be alone."""
    def batched(x, rows):
        outs = [fun(xr, r) for xr, r in zip(x, rows)]
        return tuple(np.array(o) for o in zip(*outs))
    return batched


class TestVectorBrackets:
    """One bracket per row: each row must be its scalar search, bit for bit."""

    @staticmethod
    def row_fun(x, r):
        # row 0: smooth inner minimum; 1: best at lo; 2: best at hi; 3: a
        # flat row, whose first point is its best; 4: inf beside the best,
        # so no finite curvature; 5: a kink in a wider bracket
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
        else:
            y = np.abs(x - 1.234567) + 0.1 * (x - 1.2) ** 2
        return y, 2 * x + r

    LO = np.array([-1.0, 0.5, 0.5, 0.0, 0.0, -4.0])
    HI = np.array([2.0, 2.0, 2.0, 1.0, 1.5 + 1.5 / 32 * 16, 7.0])

    def test_each_row_is_its_scalar_search(self):
        vec = minimize_on_bracket(_rows_of(self.row_fun), self.LO, self.HI)
        nfev = 0
        for r, (lo, hi) in enumerate(zip(self.LO, self.HI)):
            one = minimize_on_bracket(lambda x, r=r: self.row_fun(x, r), lo, hi)
            assert vec.x[r].tobytes() == np.float64(one.x).tobytes(), r
            for a, b in zip(vec.out, one.out):
                assert a[r].tobytes() == np.float64(b).tobytes(), r
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
        # a best point at an edge (rows 1, 2, 3) or beside inf (4) gets no
        # vertex; rows 0 and 5 share one call of one point each
        assert calls[-1] == ((2, 1), [0, 5])
        assert all(shape[1] == POINTS for shape, _ in calls[:-1])

    def test_a_row_leaves_once_its_own_stop_is_met(self, monkeypatch):
        # a round keeps 1/32 of a bracket whose best is at an edge and 1/16
        # of one whose best is inner.  At RTOL = 1e-5 either way takes 4
        # rounds; at 1e-4 the edge row (0) stops after 3, the inner one (1)
        # after 4.
        monkeypatch.setattr(rabipi.optimize, "RTOL", 1e-4)
        rows_seen = []

        def fun(x, rows):
            rows_seen.append(list(rows))
            return (np.where(np.array(rows)[:, None] == 0, x, (x - 0.55) ** 2),)

        res = minimize_on_bracket(fun, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert rows_seen == [[0, 1]] * 3 + [[1], [1]]  # 4 rounds, then a vertex
        assert res.x[0] == 0.0 and res.x[1] == pytest.approx(0.55, abs=1e-9)
        assert res.nfev == 7 * POINTS + 1

    def test_scalar_brackets_give_scalars_and_todays_nfev(self):
        res = minimize_on_bracket(lambda x: ((x - 0.7) ** 2 + x ** 4,), 0.0, 1.0)
        assert isinstance(res.x, float)
        assert np.ndim(res.out[0]) == 0
        # four rounds of 33 points, then the vertex
        assert res.nfev == 4 * POINTS + 1
