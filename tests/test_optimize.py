import math

import numpy as np
import pytest

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
        res = minimize_on_bracket(lambda x: (sign * x,), 0.5, 2.0)
        assert res.x == edge
        assert res.out == (sign * edge,)

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
        # batched rounds, then the best point and its neighbours, then the vertex
        assert sizes[:-2] == [POINTS] * (len(sizes) - 2)
        assert sizes[-2:] == [3, 1]
