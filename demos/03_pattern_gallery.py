"""Bin the seven synthetic test patterns and score their dependence.

Six patterns (wave, rotated square, circle, valley, cross, ring) carry
real dependence that survives the rank transform; four_clusters is the
control: strong visual structure built from independent bimodal margins,
invisible in rank space.  Each pattern is binned with chi-maximizing
splits at depth 10, placed against a simulated null by empirical p-value,
and rendered as a residual-shaded SVG (one shared hue range across the
gallery so panels compare directly).

Run:  python demos/03_pattern_gallery.py        (a few seconds)
"""

from pathlib import Path

import numpy as np

import rankbin as rb
from rankbin.patterns import PATTERN_KINDS
from rankbin.plotting import render_binnings

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

n = 1000
stop = rb.StopConfig(max_depth=10, min_expected=10.0)

null = rb.simulate_null(n, [10], "chi", stop, z=5.0, n_sim=300, seed=3)

results = []
binnings = {}
for kind in PATTERN_KINDS:
    x, y = rb.generate(rb.PatternSpec(kind=kind, n=n, seed=11))
    pair = rb.rank_pair(x, y, np.random.default_rng(11))
    binning = rb.bin_pair(pair, kind="chi", stop=stop, z=5.0, seed=11)
    chi2, n_bin = rb.chi2_statistic(binning)
    p = rb.empirical_p(null, (n_bin, chi2), window=10**9)
    results.append((kind, n_bin, chi2, p))
    binnings[kind] = binning

# one hue range, the largest |residual| of the whole gallery
svgs = render_binnings(list(binnings.values()), fill="residual", show_points=True)
for kind, svg in zip(binnings, svgs):
    (OUT / f"pattern_{kind}.svg").write_text(svg)

print(f"chi-maximized binning at depth 10, n={n}, vs {null.size}-replicate null\n")
print(f"{'pattern':16s} {'n_bin':>5s} {'chi2':>9s} {'p_emp':>8s}")
for kind, n_bin, chi2, p in sorted(results, key=lambda r: -r[2]):
    flag = "  <- independent control" if kind == "four_clusters" else ""
    print(f"{kind:16s} {n_bin:5d} {chi2:9.1f} {p:8.4f}{flag}")

print(f"\nwrote gallery SVGs to {OUT}/ (shared hue range)")
