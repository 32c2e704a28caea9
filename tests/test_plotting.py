import xml.etree.ElementTree as ET

from rabipi.estimate import estimate_pi, fit_model
from rabipi.model import IDEAL
from rabipi.plotting import render_svg
from rabipi.simulate import DEFAULT_GRID, sample_dataset

SVG_NS = "{http://www.w3.org/2000/svg}"


def _elements(svg, tag):
    root = ET.fromstring(svg)
    return root.findall(f".//{SVG_NS}{tag}")


def _sampled():
    return sample_dataset(IDEAL, DEFAULT_GRID, 8192, seed=21)


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
