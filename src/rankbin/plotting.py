"""Deterministic SVG rendering of binnings.

One rectangle per bin, scaled from rank space onto a fixed square viewport.
Depth fill shades bins white (depth 0) to dark gray at the configured
maximum depth, so plots made at different depth limits stay comparable.
Residual fill shades negative residuals blue and positive ones red,
linearly from white at zero to the full hue at the normalizing magnitude
(the plot's own maximum, or one shared across several plots).  Output is
plain SVG 1.1 in bin order with no volatile content, so renders of equal
binnings are byte-identical.  Each layer is an array pass over the
binning's columns.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .bins import Binning
from .stats import pearson_residuals

NEGATIVE_HUE = (0x21, 0x66, 0xAC)  # saturated blue
POSITIVE_HUE = (0xB2, 0x18, 0x2B)  # saturated red
DEPTH_HUE = (0x40, 0x40, 0x40)  # dark gray

FILL_MODES = ("none", "depth", "residual")


def _nums(values: np.ndarray) -> list[str]:
    """Each value to 6 decimals, trailing zeros and point stripped, by built-ins."""
    text = map("%.6f".__mod__, values.tolist())
    return list(map(str.rstrip, map(str.rstrip, text, repeat("0")), repeat(".")))


def _channels(binning: Binning, fill: str, resid, rmax) -> np.ndarray:
    """Every bin's (r, g, b): its hue lerped from white, rounded half to even."""
    if fill == "depth":
        t = binning.depth / max(binning.stop.max_depth, 1)
        hue = np.array([DEPTH_HUE])
    elif fill == "residual" and rmax > 0:
        t = np.abs(resid) / rmax
        hue = np.where((resid > 0)[:, None], POSITIVE_HUE, NEGATIVE_HUE)
    else:
        return np.full((binning.n_bin, 3), 255)
    return np.rint(255 + (hue - 255) * np.clip(t, 0.0, 1.0)[:, None]).astype(np.int64)


def _svg(binning: Binning, channels: np.ndarray, text: list[str] | None, size: int) -> str:
    """One binning's SVG, its points drawn from ``text``, if given."""
    n = binning.n
    scale = size / n
    # rank t increases upward; SVG y increases downward
    x0, x1 = binning.lower_s * scale, binning.upper_s * scale
    y0, y1 = (n - binning.upper_t) * scale, (n - binning.lower_t) * scale
    rect = ('<rect x="%s" y="%s" width="%s" height="%s" fill="#%02X%02X%02X" '
            'stroke="#333333" stroke-width="0.5"/>')
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
    ]
    out += map(rect.__mod__, zip(_nums(x0), _nums(y0), _nums(x1 - x0), _nums(y1 - y0),
                                 *channels.T.tolist()))
    if text is not None and binning.n_bin:
        xs, ys = binning.points_s, n - binning.points_t
        if xs.size and (min(xs.min(), ys.min()) < 0 or max(xs.max(), ys.max()) > n):
            raise ValueError("bin points must lie in 0..n")
        # an f-string per point outruns every mapped formatting of them
        out += [f'<circle cx="{text[x]}" cy="{text[y]}" r="1.5" fill="#000000"/>'
                for x, y in zip(xs.tolist(), ys.tolist())]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_binning(binning: Binning, fill: str = "residual", show_points: bool = False,
                   max_abs_residual: float | None = None, size: int = 500) -> str:
    """Render a binning as an SVG document string.

    ``max_abs_residual`` overrides the residual normalization so a set of
    plots can share one hue range; other fill modes ignore it.  Raises
    ``ValueError`` for an unknown fill, a negative or non-finite
    ``max_abs_residual`` (whatever the fill) or a ``size`` below 1.
    """
    return render_binnings([binning], fill, show_points, max_abs_residual, size)[0]


def render_binnings(
    binnings: list[Binning], fill: str = "residual", show_points: bool = False,
    max_abs_residual: float | None = None, size: int = 500,
) -> list[str]:
    """``render_binning`` of each binning, by default all normalised by the
    largest absolute residual of them all.  Each binning's residuals are
    computed once, and each n's rank coordinates formatted once for all its
    plots, rank k as the float64 ``k * scale`` the rect corners also use."""
    if fill not in FILL_MODES:
        raise ValueError(f"fill must be one of {FILL_MODES}")
    if max_abs_residual is not None and not 0 <= max_abs_residual < math.inf:
        raise ValueError("max_abs_residual must be finite and >= 0")
    if size < 1:
        raise ValueError("size must be >= 1")
    resid = [pearson_residuals(b) if fill == "residual" else None for b in binnings]
    if max_abs_residual is None and fill == "residual":
        max_abs_residual = max((float(max(abs(r.max()), abs(r.min()), 0.0)) for r in resid),
                               default=0.0)
    text = {n: _nums(np.arange(n + 1) * (size / n))
            for n in {b.n for b in binnings}} if show_points else {}
    return [_svg(b, _channels(b, fill, r, max_abs_residual), text.get(b.n), size)
            for b, r in zip(binnings, resid)]
