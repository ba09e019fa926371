import re

import numpy as np
import pytest
from _oracles import per_point_render
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankbin import Bin, Binning, StopConfig, bin_pair, pearson_residuals, render_binning
from rankbin.plotting import FILL_MODES, render_binnings
from rankbin.ranks import RankedPair


def _pair(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankedPair(s=rng.permutation(n) + 1, t=rng.permutation(n) + 1, n=n)


def _line_pair(n, seed=0):
    perm = np.random.default_rng(seed).permutation(n) + 1
    return RankedPair(s=perm, t=perm, n=n)


def _rects(svg):
    pat = re.compile(
        r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" '
        r'fill="(#[0-9A-F]{6})"'
    )
    return [
        (float(m[0]), float(m[1]), float(m[2]), float(m[3]), m[4])
        for m in pat.findall(svg)
    ]


def test_single_root_bin_is_one_white_rect():
    binning = bin_pair(_pair(20), "chi", StopConfig(max_depth=0))
    for fill in ("none", "depth", "residual"):
        rects = _rects(render_binning(binning, fill=fill))
        assert len(rects) == 1
        x, y, w, h, color = rects[0]
        assert (x, y, w, h) == (0.0, 0.0, 500.0, 500.0)
        assert color == "#FFFFFF"  # depth 0 / zero residual / none


def test_depth_fill_uses_configured_max_depth():
    binning = bin_pair(_pair(1000, seed=1), "chi", StopConfig(max_depth=6), 5.0, 2)
    svg = render_binning(binning, fill="depth")
    rects = _rects(svg)
    greys = {c for *_, c in rects}
    # depth-6 bins at the configured max depth get the darkest shade
    assert "#404040" in greys
    assert all(c[1:3] == c[3:5] == c[5:7] for c in greys)  # grayscale only


def test_residual_fill_line_pattern_red_diagonal_blue_corners():
    binning = bin_pair(_line_pair(1000, seed=3), "chi", StopConfig(max_depth=6), 5.0, 4)
    svg = render_binning(binning, fill="residual")
    rects = _rects(svg)
    n = 1000
    scale = 500 / n

    def chan(c, i):
        return int(c[1 + 2 * i:3 + 2 * i], 16)

    reds = blues = 0
    for b, (x, y, w, h, color) in zip(binning.bins, rects):
        r, g, bl = (chan(color, i) for i in range(3))
        on_diag = b.lower_s == b.lower_t and b.upper_s == b.upper_t
        off_corner = (b.lower_s >= b.upper_t) or (b.lower_t >= b.upper_s)
        if on_diag and b.observed > 0:
            assert r > bl  # surplus on the diagonal renders red
            reds += 1
        if off_corner and b.observed == 0 and b.expected > 50:
            assert bl > r  # big empty corners render blue
            blues += 1
    assert reds >= 2 and blues >= 2


def test_rects_tile_viewport_exactly():
    binning = bin_pair(_pair(700, seed=5), "random", StopConfig(max_depth=7), 5.0, 6)
    svg = render_binning(binning, fill="none")
    rects = _rects(svg)
    assert len(rects) == binning.n_bin
    n = binning.n
    scale = 500 / n
    # all emitted coordinates land within rounding distance of the rank
    # lattice; snapped back to it, the rectangles must tile {0..n}^2 exactly
    snapped = []
    for x, y, w, h, _ in rects:
        corners = (x / scale, (x + w) / scale, y / scale, (y + h) / scale)
        ints = tuple(round(c) for c in corners)
        assert all(abs(c - i) < 1e-4 for c, i in zip(corners, ints))
        snapped.append(ints)
    assert sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in snapped) == n * n
    for i, (ax0, ax1, ay0, ay1) in enumerate(snapped):
        for bx0, bx1, by0, by1 in snapped[i + 1:]:
            assert ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0


def test_shared_normalization_caps_saturation():
    binning = bin_pair(_line_pair(500, seed=7), "chi", StopConfig(max_depth=4), 5.0, 8)
    alone = render_binning(binning, fill="residual")
    shared = render_binning(binning, fill="residual", max_abs_residual=1e9)
    # a huge shared normalizer washes every bin toward white
    assert alone != shared
    assert shared.count("#FFFFFF") >= alone.count("#FFFFFF")


def test_svg_deterministic_and_points_overlay():
    binning = bin_pair(_pair(100, seed=9), "chi", StopConfig(max_depth=4), 5.0, 1)
    a = render_binning(binning, fill="residual", show_points=True)
    b = render_binning(binning, fill="residual", show_points=True)
    assert a == b
    assert a.count("<circle") == 100
    assert "<?xml" in a and a.rstrip().endswith("</svg>")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 1000),
    kind=st.sampled_from(["chi", "mi", "random"]),
    size=st.sampled_from([500, 333, 1, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=7, kind="chi", size=500, seed=0)
@example(n=755, kind="random", size=500, seed=1)
@example(n=1000, kind="mi", size=333, seed=2)
def test_points_plot_matches_per_point_oracle(n, kind, size, seed):
    # one formatted text per rank coordinate gives, byte for byte, the plot
    # that formatted both coordinates of every point
    binning = bin_pair(_pair(n, seed), kind, StopConfig(max_depth=5), z=2.0, seed=seed)
    for fill in FILL_MODES:
        assert (render_binning(binning, fill, show_points=True, size=size)
                == per_point_render(binning, fill, show_points=True, size=size))


def test_points_outside_the_rank_range_are_refused():
    # rank 0 (and t = n, drawn at y = 0) still has a place on the plot
    for s, t, ok in (([0, 5], [1, 5], True), ([1, 6], [1, 2], False),
                     ([-1, 2], [1, 2], False), ([1, 2], [-1, 2], False),
                     ([1, 2], [6, 2], False)):
        b = Bin(0, 5, 0, 5, np.array(s), np.array(t), 2.0, 0)
        binning = Binning([b], "chi", StopConfig(2), 5.0, 0, n=5)
        if ok:
            assert render_binning(binning, show_points=True).count("<circle ") == 2
        else:
            with pytest.raises(ValueError, match="0..n"):
                render_binning(binning, show_points=True)


@pytest.mark.parametrize("rmax", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_negative_or_non_finite_residual_range_is_refused(rmax):
    # each once painted every bin white
    binning = bin_pair(_line_pair(200, seed=2), "chi", StopConfig(max_depth=4), 5.0, 3)
    for fill in FILL_MODES:
        with pytest.raises(ValueError, match="max_abs_residual"):
            render_binning(binning, fill, max_abs_residual=rmax)


@pytest.mark.parametrize("size", [0, -5])
def test_size_below_one_is_refused(size):
    # each once drew zero or negative rect geometry
    binning = bin_pair(_pair(50, seed=4), "chi", StopConfig(max_depth=3), 5.0, 5)
    with pytest.raises(ValueError, match="size"):
        render_binning(binning, size=size)
    with pytest.raises(ValueError, match="size"):
        render_binnings([binning], size=size)


def test_render_binnings_share_the_largest_residual():
    # one call renders each plot as render_binning does, given the largest
    # absolute residual of all of them; other fills ignore it
    binnings = [bin_pair(_pair(n, seed=n), "chi", StopConfig(max_depth=5), 5.0, n)
                for n in (300, 300, 41)] + [bin_pair(_line_pair(300, 6), "mi",
                                                     StopConfig(max_depth=5), 5.0, 7)]
    rmax = max(float(np.max(np.abs(pearson_residuals(b)))) for b in binnings)
    for fill in FILL_MODES:
        for points in (False, True):
            assert render_binnings(binnings, fill, points, size=333) == [
                render_binning(b, fill, points, max_abs_residual=rmax, size=333)
                for b in binnings]
    assert render_binnings([]) == []


def test_fills_clamp_and_round_half_to_even_as_round_does():
    # 255 + (0x40 - 255) * 1 / 382 is 254.5: round gives 254, as np.rint
    # does, where rounding half up would give 255; a range below the
    # largest residual saturates the hue instead of passing it
    bins = [Bin(0, 4, 0, 4, np.array([1, 2, 3]), np.array([1, 2, 3]), 1.0, 1),
            Bin(4, 8, 0, 8, np.array([5]), np.array([6]), 4.0, 382),
            Bin(0, 4, 4, 8, np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3.0, 0)]
    binning = Binning(bins, "chi", StopConfig(382), 5.0, 0, n=8)
    assert 'fill="#FEFEFE"' in render_binning(binning, "depth")
    for fill, rmax in (("depth", None), ("residual", None), ("residual", 0.5)):
        assert (render_binning(binning, fill, True, rmax)
                == per_point_render(binning, fill, True, rmax))
