"""Scan a column matrix for dependent pairs, as on a returns panel.

Synthetic "price" series are converted to negative log-returns, a few
genuinely dependent pairs are planted (shared market factor with varying
loadings), and every column pair is ranked, binned, and scored.  The scan
emits a CSV sorted by the statistic and renders the top, middle, and
bottom pairs with a shared residual hue range: strongly dependent pairs
show red diagonals and blue corners, middling ones a faint version of the
same shape, and the weakest look like flat noise.

Run:  python demos/04_pairwise_scan.py        (a few seconds)
"""

from pathlib import Path

import numpy as np

import rankbin as rb
from rankbin.plotting import render_binnings
from rankbin.scan import pair_binnings

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(404)
n_days, n_series = 756, 20

# geometric random walks; the first six share a common factor
factor = rng.normal(0, 0.01, n_days - 1)
prices = {}
for i in range(n_series):
    load = (0.9 - 0.15 * i) if i < 6 else 0.0
    shocks = load * factor + np.sqrt(max(1 - load**2, 0.05)) * rng.normal(0, 0.01, n_days - 1)
    prices[f"s{i:02d}"] = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(shocks)]))

returns = {name: rb.neg_log_returns(p) for name, p in prices.items()}
n = len(next(iter(returns.values())))
print(f"{n_series} series, {n} negative log-returns each")

stop = rb.StopConfig(max_depth=6, min_expected=10.0)
null = rb.simulate_null(n, [6], "chi", stop, z=5.0, n_sim=300, seed=405)
records = rb.scan_pairs(returns, "chi", stop, 5.0, 406, null, window=10**9)

rb.write_records_csv(records, OUT / "scan.csv")
print(f"scanned {len(records)} pairs -> {OUT / 'scan.csv'}\n")

panels = {
    "top": rb.top_k(records, 3),
    "middle": rb.middle_k(records, 3),
    "bottom": rb.bottom_k(records, 3),
}
chosen = [r for group in panels.values() for r in group]
binnings = pair_binnings(returns, [(r.name_a, r.name_b) for r in chosen], "chi", stop,
                         5.0, 406)
# one hue range, the largest |residual| of all nine panels
svgs = render_binnings(binnings, fill="residual", show_points=True)

i = 0
for group, recs in panels.items():
    print(f"{group} pairs:")
    for r in recs:
        print(f"  {r.name_a}-{r.name_b}: n_bin={r.n_bin} "
              f"chi2={r.chi2:8.1f} p={r.p_emp:.4f}")
        (OUT / f"scan_{group}_{r.name_a}_{r.name_b}.svg").write_text(svgs[i])
        i += 1

print(f"\nwrote pair panels to {OUT}/ (shared hue range across all nine)")
