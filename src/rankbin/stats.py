"""Aggregate statistics over a partition and calibration against nulls.

The headline statistic sums each final bin's chi contribution
``(o - e)^2 / e``; its distribution depends on the split rule and stop
criteria, so significance comes from a simulated null table: independent
rank permutations binned under the same configuration, recorded as
(depth limit, bin count, statistic) triples.  Observed statistics are then
placed by add-one empirical tail proportions among null entries with a
comparable bin count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bins import Binning, StopConfig
from .engine import check_growth_args, grow_levels
from .ranks import RankedPair


def chi2_statistic(binning: Binning) -> tuple[float, int]:
    """Chi-squared statistic over the final bins and the bin count."""
    total = 0.0
    for b in binning.bins:
        if b.expected == 0:
            raise RuntimeError("bin with zero expected count")
        d = b.observed - b.expected
        total += d * d / b.expected
    return total, binning.n_bin


def mi_statistic(binning: Binning) -> float:
    """Plug-in mutual information of the partition, with 0*log(0) = 0."""
    n = binning.n
    total = 0.0
    for b in binning.bins:
        o = b.observed
        if o > 0:
            total += (o / n) * np.log(o / b.expected)
    return total


def pearson_residuals(binning: Binning) -> np.ndarray:
    """Signed square roots of the per-bin chi contributions, in bin order."""
    out = np.empty(binning.n_bin)
    for i, b in enumerate(binning.bins):
        d = b.observed - b.expected
        out[i] = np.sign(d) * np.sqrt(d * d / b.expected)
    return out


@dataclass(frozen=True)
class NullTable:
    """Simulated (depth limit, n_bin, chi2) triples for one configuration.

    ``config`` records how the simulations were produced (score kind, stop
    settings, split floor z); tables loaded from bare CSV carry None and
    cannot be checked for configuration mismatches.
    """

    n: int
    depths: np.ndarray
    n_bins: np.ndarray
    chi2s: np.ndarray
    config: dict | None = None

    def __post_init__(self):
        if not (self.depths.size == self.n_bins.size == self.chi2s.size):
            raise ValueError("entry columns must have equal length")
        if self.depths.size and (self.n_bins.min() < 1 or self.chi2s.min() < 0):
            raise ValueError("entries require n_bin >= 1 and chi2 >= 0")

    @property
    def size(self) -> int:
        return int(self.depths.size)

    def to_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())

    def to_csv_text(self) -> str:
        lines = ["depth,n_bin,chi2"]
        for d, nb, c in zip(self.depths, self.n_bins, self.chi2s):
            lines.append(f"{int(d)},{int(nb)},{format(float(c), '.17g')}")
        return "\n".join(lines) + "\n"

    def to_json(self, path) -> None:
        doc = {
            "n": self.n,
            "config": self.config,
            "entries": [
                [int(d), int(nb), float(c)]
                for d, nb, c in zip(self.depths, self.n_bins, self.chi2s)
            ],
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def from_csv(cls, path, n: int = 0) -> "NullTable":
        text = Path(path).read_text()
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or lines[0][1].strip() != "depth,n_bin,chi2":
            raise ValueError(f"{path}: expected header 'depth,n_bin,chi2'")
        rows = []
        for i, ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != 3:
                raise ValueError(f"{path}: line {i}: expected 3 cells, found {len(cells)}")
            try:
                row = (int(cells[0]), int(cells[1]), float(cells[2]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {i}: {exc}") from None
            if row[1] < 1 or row[2] < 0:
                raise ValueError(f"{path}: line {i}: entries require n_bin >= 1 and chi2 >= 0")
            rows.append(row)
        depths = np.array([r[0] for r in rows], dtype=np.int64)
        n_bins = np.array([r[1] for r in rows], dtype=np.int64)
        chi2s = np.array([r[2] for r in rows], dtype=float)
        return cls(n=n, depths=depths, n_bins=n_bins, chi2s=chi2s, config=None)

    @classmethod
    def from_json(cls, path) -> "NullTable":
        doc = json.loads(Path(path).read_text())
        bad = ValueError(f"{path}: expected an object with 'n' and N x 3 'entries'")
        try:
            n = int(doc["n"])
            entries = np.asarray(doc["entries"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise bad from None
        if entries.size == 0:
            entries = entries.reshape(0, 3)
        if entries.ndim != 2 or entries.shape[1] != 3:
            raise bad
        return cls(
            n=n,
            depths=entries[:, 0].astype(np.int64),
            n_bins=entries[:, 1].astype(np.int64),
            chi2s=entries[:, 2],
            config=doc.get("config"),
        )


# Points grown together in one batch of null replicates: enough replicates
# to share each level's array passes, few enough to keep them in cache.
_NULL_CHUNK = 1 << 13


def _running_sums(total: np.ndarray, terms: np.ndarray, root: np.ndarray) -> np.ndarray:
    """``total[r]`` plus tree r's ``terms``, added one at a time in order.

    The sum runs left to right like ``chi2_statistic``'s loop (``np.sum``
    adds pairwise), so each tree's statistic matches its binning's bit for bit.
    """
    counts = np.bincount(root, minlength=total.size)
    grid = np.zeros((total.size, counts.max(initial=0) + 1))
    grid[:, 0] = total
    first = np.cumsum(counts) - counts
    grid[root, np.arange(root.size) - first[root] + 1] = terms
    return np.cumsum(grid, axis=1)[:, -1]


def _null_chunk(args) -> list[tuple[int, int, float]]:
    """Null rows of replicates ``reps``, their trees grown as one batch."""
    n, depths, kind, stop, z, seed, reps = args
    pairs, seeds = [], []
    for rep in reps:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep)))
        s = rng.permutation(n) + 1
        t = rng.permutation(n) + 1
        seeds.append(int(rng.integers(0, 2**63)))
        pairs.append(RankedPair(s=s, t=t, n=n))
    # Partition d of a tree is its leaves above depth d, then its nodes at
    # depth d, each in breadth-first order.
    leaf_chi2 = np.zeros(len(pairs))
    leaf_bins = np.zeros(len(pairs), dtype=np.int64)
    by_depth = {}
    for lv in grow_levels(pairs, seeds, kind, depths[-1], stop.min_expected, z):
        dev = lv.observed - lv.expected
        terms = dev * dev / lv.expected
        if lv.depth in depths:
            by_depth[lv.depth] = (
                leaf_bins + np.bincount(lv.root, minlength=len(pairs)),
                _running_sums(leaf_chi2, terms, lv.root),
            )
        leaf_chi2 = _running_sums(leaf_chi2, terms[lv.leaf], lv.root[lv.leaf])
        leaf_bins = leaf_bins + np.bincount(lv.root[lv.leaf], minlength=len(pairs))
    cols = [by_depth.get(d, (leaf_bins, leaf_chi2)) for d in depths]
    return [
        (d, int(n_bin[r]), float(chi2[r]))
        for r in range(len(pairs))
        for d, (n_bin, chi2) in zip(depths, cols)
    ]


def simulate_null(
    n: int,
    depths,
    kind: str,
    stop: StopConfig,
    z: float = 5.0,
    n_sim: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> NullTable:
    """Simulate the null distribution of the statistic by rank shuffling.

    Each replicate draws two independent uniform permutations of 1..n and
    bins them once per requested depth limit under the given configuration.
    Replicate ``r`` derives all of its randomness from the seed material
    ``(seed, r)``, so the table is reproducible and independent of worker
    count; entries are ordered by replicate then depth.  Replicates are
    grown together in batches of up to 8,192 points (one replicate if it
    is larger), and workers take whole batches.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    depths = check_growth_args(depths, kind, z)
    per = max(1, _NULL_CHUNK // n)
    jobs = [(n, depths, kind, stop, z, seed, range(a, min(a + per, n_sim)))
            for a in range(0, n_sim, per)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_null_chunk, jobs))
    else:
        results = [_null_chunk(j) for j in jobs]
    rows = [row for chunk_rows in results for row in chunk_rows]
    config = {
        "kind": kind,
        "depths": depths,
        "min_expected": stop.min_expected,
        "stop_empty": True,
        "z": z,
        "seed": seed,
    }
    return NullTable(
        n=n,
        depths=np.array([r[0] for r in rows], dtype=np.int64),
        n_bins=np.array([r[1] for r in rows], dtype=np.int64),
        chi2s=np.array([r[2] for r in rows]),
        config=config,
    )


def _widened_window(gap: np.ndarray, window: int, min_count: int) -> np.ndarray:
    """Mask of entries with ``gap <= w``, widening ``w`` from ``window``.

    ``w`` grows one step at a time until the mask holds ``min_count``
    entries or ``w`` reaches the largest gap.
    """
    w = window
    sel = gap <= w
    max_gap = int(gap.max())
    while w < max_gap and int(sel.sum()) < min_count:
        w += 1
        sel = gap <= w
    return sel


def empirical_p(
    null: NullTable, observed: tuple[int, float], window: int = 2
) -> float:
    """Add-one empirical p-value of an observed (n_bin, chi2) pair.

    Null entries whose bin count lies within ``window`` of the observed one
    form the reference set.  If the window captures nothing it widens
    symmetrically until it holds at least 100 entries or spans the table.
    """
    if null.size == 0:
        raise ValueError("empty null table")
    obs_nb, obs_chi2 = int(observed[0]), float(observed[1])
    gap = np.abs(null.n_bins - obs_nb)
    in_win = gap <= window
    if not in_win.any():
        in_win = _widened_window(gap, window, 100)
    n_ref = int(in_win.sum())
    n_ge = int(np.count_nonzero(null.chi2s[in_win] >= obs_chi2))
    return (1 + n_ge) / (1 + n_ref)


def null_quantile_curve(
    null: NullTable, q: float, window: int = 2, min_count: int = 50
) -> dict[int, float]:
    """Empirical q-quantile of chi2 per observed bin count, made monotone.

    Each distinct bin count pools entries within ``window`` of itself,
    widening until the pool holds ``min_count`` entries; the resulting
    values are rearranged into non-decreasing order over increasing bin
    count.  Raises ``ValueError`` if even the whole table is too small.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    if null.size < min_count:
        raise ValueError(
            f"null table has {null.size} entries, fewer than min_count={min_count}"
        )
    levels = np.unique(null.n_bins)
    raw = []
    for nb in levels:
        sel = _widened_window(np.abs(null.n_bins - nb), window, min_count)
        raw.append(float(np.quantile(null.chi2s[sel], q)))
    monotone = np.sort(np.asarray(raw))
    return {int(nb): float(v) for nb, v in zip(levels, monotone)}
