"""Standalone SVG plots of measured fractions and fitted curves.

Emits plain SVG text (no imaging dependency): one circle marker per record,
an optional fitted-curve polyline, and optional guide lines marking the
crossing level beta_hat + LEVEL * alpha_hat and the estimated crossings.
"""

import numpy as np

from .estimate import LEVEL, EstimateResult
from .model import NoiseModel, noisy_prob
from .simulate import Dataset

__all__ = ["render_svg"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 20, 50
CURVE_SAMPLES = 200

# One %-template per element kind, filled from a flat tuple of Python
# floats: "%.2f" % x rounds as f"{x:.2f}" does.
_POLYLINE = ('<polyline class="fit" points="%s" fill="none" stroke="red"/>'
             % " ".join(["%.2f,%.2f"] * CURVE_SAMPLES))
_CIRCLE = '<circle class="datapoint" cx="%.2f" cy="%.2f" r="3" fill="steelblue"/>'


def _scales(t_lo, t_hi):
    """Data-to-pixel maps; each takes a number or a NumPy array."""
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(t):
        return MARGIN_L + (t - t_lo) / (t_hi - t_lo) * plot_w

    def sy(f):
        return MARGIN_T + (1.0 - f) * plot_h  # fractions plotted on [0, 1]

    return sx, sy


def _interleave(x, y):
    """(x0, y0, x1, y1, ...) as Python floats."""
    return tuple(np.column_stack((x, y)).ravel().tolist())


def render_svg(ds: Dataset, model: NoiseModel | None = None,
               result: EstimateResult | None = None) -> str:
    """Render a dataset, optionally with its fitted curve and crossing markers.

    The curve's samples and the data markers are mapped to pixels as whole
    arrays and written with one template per element kind; every coordinate
    is rounded to 2 decimals as ``f"{x:.2f}"`` rounds it."""
    t = ds.times()
    f = ds.fractions()
    t_lo, t_hi = float(t[0]), float(t[-1])
    sx, sy = _scales(t_lo, t_hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{sy(0)}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{sy(0)}" x2="{MARGIN_L}" '
        f'y2="{sy(1)}" stroke="black"/>',
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-size="14">rotation angle t</text>',
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" '
        f'text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">'
        'fraction of |1⟩</text>',
    ]

    if result is not None:
        y_level = sy(result.beta_hat + LEVEL * result.alpha_hat)
        parts.append(
            f'<line class="level" x1="{MARGIN_L}" y1="{y_level:.2f}" '
            f'x2="{WIDTH - MARGIN_R}" y2="{y_level:.2f}" '
            'stroke="gray" stroke-dasharray="4 4"/>')
        for t_cross in (result.t1_hat, result.t2_hat):
            x = sx(t_cross)
            parts.append(
                f'<line class="crossing" x1="{x:.2f}" y1="{sy(0):.2f}" '
                f'x2="{x:.2f}" y2="{sy(1):.2f}" '
                'stroke="green" stroke-dasharray="2 3"/>')

    if model is not None:
        tt = np.linspace(t_lo, t_hi, CURVE_SAMPLES)
        parts.append(_POLYLINE % _interleave(sx(tt), sy(noisy_prob(model, tt))))

    parts.append("\n".join([_CIRCLE] * len(t)) % _interleave(sx(t), sy(f)))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
