"""Standalone SVG plots of measured fractions and fitted curves.

Emits plain SVG text (no imaging dependency): one circle marker per record,
an optional fitted-curve polyline, and optional guide lines marking the 1/2
level and the estimated crossings.
"""

import numpy as np

from .estimate import EstimateResult
from .model import NoiseModel, noisy_prob
from .simulate import Dataset

__all__ = ["render_svg"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 20, 50
CURVE_SAMPLES = 200


def _scales(t_lo, t_hi):
    """Data-to-pixel maps; each takes a number or a NumPy array."""
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(t):
        return MARGIN_L + (t - t_lo) / (t_hi - t_lo) * plot_w

    def sy(f):
        return MARGIN_T + (1.0 - f) * plot_h  # fractions plotted on [0, 1]

    return sx, sy


def render_svg(ds: Dataset, model: NoiseModel | None = None,
               result: EstimateResult | None = None) -> str:
    """Render a dataset, optionally with its fitted curve and crossing markers."""
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
        y_half = sy(0.5)
        parts.append(
            f'<line class="level" x1="{MARGIN_L}" y1="{y_half:.2f}" '
            f'x2="{WIDTH - MARGIN_R}" y2="{y_half:.2f}" '
            'stroke="gray" stroke-dasharray="4 4"/>')
        for t_cross in (result.t1_hat, result.t2_hat):
            x = sx(t_cross)
            parts.append(
                f'<line class="crossing" x1="{x:.2f}" y1="{sy(0):.2f}" '
                f'x2="{x:.2f}" y2="{sy(1):.2f}" '
                'stroke="green" stroke-dasharray="2 3"/>')

    if model is not None:
        tt = np.linspace(t_lo, t_hi, CURVE_SAMPLES)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                       zip(sx(tt).tolist(), sy(noisy_prob(model, tt)).tolist()))
        parts.append(
            f'<polyline class="fit" points="{pts}" fill="none" stroke="red"/>')

    for x, y in zip(sx(t).tolist(), sy(f).tolist()):
        parts.append(
            f'<circle class="datapoint" cx="{x:.2f}" cy="{y:.2f}" '
            'r="3" fill="steelblue"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
