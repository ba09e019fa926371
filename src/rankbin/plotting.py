"""Deterministic SVG rendering of binnings.

One rectangle per bin, scaled from rank space onto a fixed square viewport.
Depth fill shades bins white (depth 0) to dark gray at the configured
maximum depth, so plots made at different depth limits stay comparable.
Residual fill encodes each bin's signed residual: negative residuals in
blue, positive in red, saturating linearly from white at zero to the full
hue at the normalizing magnitude (by default the plot's own maximum, or a
caller-supplied value shared across several plots).

Output is plain SVG 1.1 text with elements emitted in bin order and no
volatile content, so renders of equal binnings are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .bins import Binning
from .stats import pearson_residuals

NEGATIVE_HUE = (0x21, 0x66, 0xAC)  # saturated blue
POSITIVE_HUE = (0xB2, 0x18, 0x2B)  # saturated red
DEPTH_HUE = (0x40, 0x40, 0x40)  # dark gray

FILL_MODES = ("none", "depth", "residual")


def _lerp_from_white(target: tuple[int, int, int], t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    channels = (round(255 + (c - 255) * t) for c in target)
    return "#" + "".join(f"{c:02X}" for c in channels)


def _num(x: float) -> str:
    return format(x, ".6f").rstrip("0").rstrip(".")


def render_binning(
    binning: Binning,
    fill: str = "residual",
    show_points: bool = False,
    max_abs_residual: float | None = None,
    size: int = 500,
) -> str:
    """Render a binning as an SVG document string.

    ``max_abs_residual`` overrides the residual normalization so a set of
    plots can share one hue range; it is ignored for other fill modes.
    """
    if fill not in FILL_MODES:
        raise ValueError(f"fill must be one of {FILL_MODES}")
    n = binning.n
    scale = size / n

    def sx(v: float) -> float:
        return v * scale

    def sy(v: float) -> float:
        # rank t increases upward; SVG y increases downward
        return (n - v) * scale

    if fill == "residual":
        resid = pearson_residuals(binning)
        rmax = max_abs_residual
        if rmax is None:
            rmax = float(max(abs(resid.max()), abs(resid.min()), 0.0))
    elif fill == "depth":
        depth_norm = max(binning.stop.max_depth, 1)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
    ]
    for i, b in enumerate(binning.bins):
        if fill == "none":
            color = "#FFFFFF"
        elif fill == "depth":
            color = _lerp_from_white(DEPTH_HUE, b.depth / depth_norm)
        else:
            if rmax > 0:
                r = resid[i]
                hue = POSITIVE_HUE if r > 0 else NEGATIVE_HUE
                color = _lerp_from_white(hue, abs(r) / rmax)
            else:
                color = "#FFFFFF"
        x0, x1 = sx(b.lower_s), sx(b.upper_s)
        y0, y1 = sy(b.upper_t), sy(b.lower_t)
        out.append(
            f'<rect x="{_num(x0)}" y="{_num(y0)}" '
            f'width="{_num(x1 - x0)}" height="{_num(y1 - y0)}" '
            f'fill="{color}" stroke="#333333" stroke-width="0.5"/>'
        )
    if show_points and binning.bins:
        xs = np.concatenate([b.points_s for b in binning.bins])
        ys = n - np.concatenate([b.points_t for b in binning.bins])
        if xs.size and (min(xs.min(), ys.min()) < 0 or max(xs.max(), ys.max()) > n):
            raise ValueError("bin points must lie in 0..n")
        # each rank coordinate k is formatted once, from the float64 k * scale
        # that sx and sy give
        text = [_num(v) for v in (np.arange(n + 1) * scale).tolist()]
        out += [f'<circle cx="{text[x]}" cy="{text[y]}" r="1.5" fill="#000000"/>'
                for x, y in zip(xs.tolist(), ys.tolist())]
    out.append("</svg>")
    return "\n".join(out) + "\n"
