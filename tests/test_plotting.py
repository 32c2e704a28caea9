import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rabipi.estimate import estimate_pi, fit_model
from rabipi.model import IDEAL, NoiseModel, noisy_prob
from rabipi.plotting import (CURVE_SAMPLES, HEIGHT, MARGIN_B, MARGIN_L,
                             MARGIN_R, MARGIN_T, WIDTH, render_svg)
from rabipi.simulate import DEFAULT_GRID, Dataset, make_grid, sample_dataset

SVG_NS = "{http://www.w3.org/2000/svg}"


def _elements(svg, tag):
    root = ET.fromstring(svg)
    return root.findall(f".//{SVG_NS}{tag}")


def _sampled():
    return sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=21)


def per_point_coordinates(ds, model, result):
    """Reference for the coordinates ``render_svg`` writes: each point mapped
    and formatted on its own, as NumPy scalars.  Returns the markers'
    (cx, cy), the curve's points (or None) and the crossings' x."""
    t, f = ds.times(), ds.fractions()
    t_lo, t_hi = float(t[0]), float(t[-1])

    def sx(x):
        return MARGIN_L + (x - t_lo) / (t_hi - t_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(p):
        return MARGIN_T + (1.0 - p) * (HEIGHT - MARGIN_T - MARGIN_B)

    markers = [(f"{sx(ti):.2f}", f"{sy(fi):.2f}") for ti, fi in zip(t, f)]
    curve = crossings = None
    if model is not None:
        tt = np.linspace(t_lo, t_hi, CURVE_SAMPLES)
        curve = " ".join(f"{sx(x):.2f},{sy(p):.2f}"
                         for x, p in zip(tt, noisy_prob(model, tt)))
    if result is not None:
        crossings = [f"{sx(x):.2f}" for x in (result.t1_hat, result.t2_hat)]
    return markers, curve, crossings


def _uneven_times():
    """57 times from 0.3 on, each step drawn from 0.08 to 0.12."""
    steps = np.random.default_rng(5).uniform(0.08, 0.12, 56)
    return np.round(0.3 + np.concatenate(([0.0], np.cumsum(steps))), 6)


class TestRenderSvg:
    def test_points_only(self):
        ds = _sampled()
        svg = render_svg(ds)
        assert len(_elements(svg, "circle")) == len(ds)
        assert len(_elements(svg, "polyline")) == 0

    def test_fitted_curve_polyline(self):
        ds = _sampled()
        svg = render_svg(ds, model=fit_model(ds))
        polylines = [e for e in _elements(svg, "polyline")
                     if e.get("class") == "fit"]
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == 200

    def test_crossing_markers(self):
        ds = _sampled()
        svg = render_svg(ds, model=fit_model(ds), result=estimate_pi(ds))
        crossings = [e for e in _elements(svg, "line")
                     if e.get("class") == "crossing"]
        assert len(crossings) == 2
        levels = [e for e in _elements(svg, "line") if e.get("class") == "level"]
        assert len(levels) == 1

    def test_axis_labels(self):
        svg = render_svg(_sampled())
        texts = [e.text for e in _elements(svg, "text")]
        assert "rotation angle t" in texts
        assert "fraction of |1⟩" in texts

    def test_well_formed_xml(self):
        ds = _sampled()
        for svg in (render_svg(ds),
                    render_svg(ds, model=IDEAL),
                    render_svg(ds, model=IDEAL, result=estimate_pi(ds))):
            ET.fromstring(svg)  # raises on malformed XML

    @pytest.mark.parametrize("times", [
        DEFAULT_GRID.times(), make_grid(0.0, 6.3, 0.05).times(), _uneven_times()],
        ids=["0.1-grid", "0.05-grid", "uneven-57"])
    @pytest.mark.parametrize("with_model", [False, True])
    @pytest.mark.parametrize("with_result", [False, True])
    def test_coordinates_match_per_point_reference(self, times, with_model,
                                                   with_result):
        truth = NoiseModel(0.87, 0.04, 0.3, 1.02)
        ones = np.random.default_rng(11).binomial(8192, noisy_prob(truth, times))
        ds = Dataset(times, 8192, ones)
        model = fit_model(ds) if with_model else None
        result = estimate_pi(ds) if with_result else None
        markers, curve, crossings = per_point_coordinates(ds, model, result)
        svg = render_svg(ds, model=model, result=result)
        assert [(e.get("cx"), e.get("cy"))
                for e in _elements(svg, "circle")] == markers
        assert [e.get("points") for e in _elements(svg, "polyline")] == \
            ([] if curve is None else [curve])
        assert [e.get("x1") for e in _elements(svg, "line")
                if e.get("class") == "crossing"] == (crossings or [])
