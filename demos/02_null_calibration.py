"""Simulate the null distribution and compare split rules.

Independent rank permutations are binned to every depth limit from 2 to 10
under random and chi-maximizing splits.  For each rule the script tabulates
how often the statistic lands above the chi-square(n_bin - 1) 99% critical
value: random splitting stays comfortably below the nominal 1% (the
chi-square reference is conservative for it), while score maximization
inflates the statistic until nearly every replicate exceeds the reference.
Empirical 0.95/0.99 quantile curves against bin count are printed for use
as critical values.

Run:  python demos/02_null_calibration.py        (a few seconds)
"""

import numpy as np
from scipy.stats import chi2 as chi2_dist

import rankbin as rb

n = 1000
n_sim = 300
stop = rb.StopConfig(max_depth=10, min_expected=10.0)

tables = {}
for kind in ("random", "chi"):
    tables[kind] = rb.simulate_null(n, range(2, 11), kind, stop,
                                    z=5.0, n_sim=n_sim, seed=42)

print(f"{n_sim} replicates at n={n}, depth limits 2..10\n")
print("depth   random: median chi2  frac>crit   chi-max: median chi2  frac>crit")
for d in range(2, 11):
    row = []
    for kind in ("random", "chi"):
        t = tables[kind]
        sel = t.depths == d
        crit = chi2_dist.ppf(0.99, t.n_bins[sel] - 1)
        row += [np.median(t.chi2s[sel]), np.mean(t.chi2s[sel] > crit)]
    print(f"  {d:2d}    {row[0]:14.1f}  {row[1]:9.3f}   {row[2]:16.1f}  {row[3]:9.3f}")

print("\nempirical quantile curves (random splitting), chi2 by bin count:")
for q in (0.95, 0.99):
    curve = rb.null_quantile_curve(tables["random"], q)
    picks = sorted(curve)[:: max(1, len(curve) // 6)]
    line = "  ".join(f"{nb}->{curve[nb]:.0f}" for nb in picks)
    print(f"  q={q}: {line}")

print("\nthe random-split statistic can be calibrated against the")
print("chi-square reference; the maximized statistic needs these")
print("simulated curves (or empirical p-values) instead.")
