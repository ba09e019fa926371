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
import logging
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .bins import Binning, StopConfig
from .engine import check_growth_args, grow_trees, read_off
from .ranks import RankedPair, _trusted_pair
from .substreams import stream

logger = logging.getLogger(__name__)


def _deviations(binning: Binning) -> np.ndarray:
    """Each bin's observed minus expected count, each expected one > 0."""
    if not np.all((binning.expected > 0) & (binning.expected < np.inf)):
        raise RuntimeError("bin with an expected count that is not finite and > 0")
    return binning.observed - binning.expected


def chi2_statistic(binning: Binning) -> tuple[float, int]:
    """Chi-squared statistic over the final bins and the bin count; the
    ``(o - e)^2 / e`` are summed left to right, as ``tree_statistics`` does."""
    d = _deviations(binning)
    total = np.cumsum(d * d / binning.expected)[-1] if d.size else 0.0
    return float(total), binning.n_bin


def mi_statistic(binning: Binning) -> float:
    """Plug-in mutual information of the partition, with 0*log(0) = 0."""
    n = binning.n
    # one log per bin: numpy's array log may differ from it in the last place
    return sum(((o / n) * np.log(o / e) for o, e in zip(
        binning.observed.tolist(), binning.expected.tolist()) if o > 0), 0.0)


def pearson_residuals(binning: Binning) -> np.ndarray:
    """Signed square roots of the per-bin chi contributions, in bin order."""
    d = _deviations(binning)
    return np.sign(d) * np.sqrt(d * d / binning.expected)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64; refuses with ``ValueError`` any that is not an
    integer within int64 (3, a numpy int and 3.0 are; 3.7, nan and "3" not)."""
    x = np.asarray(values)
    if x.dtype.kind == "f":
        exact = np.all((x == np.floor(x)) & (np.abs(x) < 2.0**63))  # nan and inf fail
    else:
        exact = x.dtype.kind == "i" or (x.dtype.kind == "u" and not np.any(x >= 2**63))
    if not exact:
        raise ValueError(f"{what} must be integers within int64")
    return x.astype(np.int64, copy=False)


@dataclass(frozen=True)
class NullTable:
    """Simulated (depth limit, n_bin, chi2) triples for one configuration.

    ``n`` is the row count simulated for, 0 when unknown (tables loaded from
    bare CSV).  ``config`` records how the simulations were produced (score
    kind, stop settings, split floor z); tables loaded from bare CSV carry
    None and cannot be checked for configuration mismatches.  The columns
    are stored as int64 (``depths``, ``n_bins``, each value an integer) and
    float64 (``chi2s``) arrays.
    """

    n: int
    depths: np.ndarray
    n_bins: np.ndarray
    chi2s: np.ndarray
    config: dict | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0 (0 when unknown)")
        object.__setattr__(self, "depths", _integers(self.depths, "depths"))
        object.__setattr__(self, "n_bins", _integers(self.n_bins, "n_bin entries"))
        object.__setattr__(self, "chi2s", np.asarray(self.chi2s, dtype=float))
        if not (self.depths.size == self.n_bins.size == self.chi2s.size):
            raise ValueError("entry columns must have equal length")
        if self.depths.size and (self.depths.min() < 0 or self.n_bins.min() < 1
                                 or not np.all(np.isfinite(self.chi2s) & (self.chi2s >= 0))):
            raise ValueError("entries require depth >= 0, n_bin >= 1 and a finite chi2 >= 0")
        if self.config is not None and not isinstance(self.config, dict):
            raise ValueError("config must be an object or null")
        cfg_depths = (self.config or {}).get("depths", [])
        if not (isinstance(cfg_depths, list) and all(type(d) is int for d in cfg_depths)):
            raise ValueError("config depths must be a list of integers")

    @property
    def size(self) -> int:
        return int(self.depths.size)

    def check_config(self, n: int, kind: str, stop: StopConfig, z: float) -> None:
        """Refuse a table simulated for another row count or configuration
        (where it records them); a table without ``config`` draws a warning."""
        if self.n > 0 and self.n != n:
            raise ValueError(
                f"null table was simulated for n={self.n}, not the {n} rows scanned")
        cfg = self.config
        if cfg is None:
            logger.warning("null table carries no config metadata; skipping check")
            return
        problems = []
        if cfg.get("kind") != kind:
            problems.append(f"kind {cfg.get('kind')!r} != {kind!r}")
        if cfg.get("z") != z:
            problems.append(f"z {cfg.get('z')!r} != {z!r}")
        if cfg.get("min_expected") != stop.min_expected:
            problems.append(
                f"min_expected {cfg.get('min_expected')!r} != {stop.min_expected!r}"
            )
        # empty bins always stop, so a table simulated otherwise cannot match
        if cfg.get("stop_empty") is not True:
            problems.append(f"stop_empty {cfg.get('stop_empty')!r} != True")
        if "depths" in cfg and stop.max_depth not in cfg["depths"]:
            problems.append(f"depth {stop.max_depth} not in simulated {cfg['depths']}")
        if problems:
            raise ValueError("null table configuration mismatch: " + "; ".join(problems))

    def to_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())

    def to_csv_text(self) -> str:
        # one template mapped over the rows; '%.17g' % x is format(x, '.17g')
        rows = map("%d,%d,%.17g".__mod__,
                   zip(self.depths.tolist(), self.n_bins.tolist(), self.chi2s.tolist()))
        return "\n".join(["depth,n_bin,chi2", *rows]) + "\n"

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
    def from_csv(cls, path) -> "NullTable":
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
            if not (0 <= row[0] < 2**63 and 1 <= row[1] < 2**63 and 0 <= row[2] < np.inf):
                raise ValueError(f"{path}: line {i}: entries require depth >= 0, "
                                 "n_bin >= 1, both below 2**63, and a finite chi2 >= 0")
            rows.append(row)
        depths = np.array([r[0] for r in rows], dtype=np.int64)
        n_bins = np.array([r[1] for r in rows], dtype=np.int64)
        chi2s = np.array([r[2] for r in rows], dtype=float)
        return cls(n=0, depths=depths, n_bins=n_bins, chi2s=chi2s, config=None)

    @classmethod
    def from_json(cls, path) -> "NullTable":
        doc = json.loads(Path(path).read_text())
        bad = ValueError(f"{path}: expected an object with 'n' and N x 3 'entries'")
        try:
            n = doc["n"]
            entries = np.asarray(doc["entries"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise bad from None
        if type(n) is not int:  # a fraction, a string or a boolean
            raise ValueError(f"{path}: 'n' must be an integer, not {n!r}")
        if entries.size == 0:
            entries = entries.reshape(0, 3)
        if entries.ndim != 2 or entries.shape[1] != 3:
            raise bad
        try:
            return cls(n=n, depths=entries[:, 0], n_bins=entries[:, 1], chi2s=entries[:, 2],
                       config=doc.get("config"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_statistics(levels, pairs, seeds, depths) -> tuple[np.ndarray, np.ndarray]:
    """The statistics reader: each tree's (n_bin, chi2) under every limit.

    A partition's statistic is summed off its nodes' counts, left to right
    as ``chi2_statistic`` sums (``np.sum`` adds pairwise), bit for bit.
    """
    def take(lv, keep):
        dev = lv.observed[keep] - lv.expected[keep]
        return dev * dev / lv.expected[keep]

    taken, root, part, start = read_off(levels, depths, take)
    terms, count = np.concatenate(taken), len(pairs)
    # row k * count + r holds tree r's terms under the k-th limit, left-aligned
    # and zero-padded, and is summed along
    row = np.repeat(np.arange(len(depths)) * count, np.diff(start)) + root[part]
    n_bins = np.bincount(row, minlength=len(depths) * count)
    grid = np.zeros((n_bins.size, n_bins.max()))
    grid[row, np.arange(row.size) - (np.cumsum(n_bins) - n_bins)[row]] = terms[part]
    chi2s = np.cumsum(grid, axis=1)[:, -1]
    return n_bins.reshape(-1, count).T, chi2s.reshape(-1, count).T


def tree_statistics(
    source, count: int, n: int, depths, kind: str, min_expected: float, z: float,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Bin count and chi2 statistic of each of ``count`` trees under each depth limit.

    ``source(i)`` returns tree i's (pair of ``n`` >= 1 points, binning seed).
    The trees grow through ``engine.grow_trees``, which sets the batches and
    the workers; ``source`` must pickle (a ``functools.partial`` of a
    module-level function) only when ``workers`` > 1.  Entry [i, k] of both
    arrays belongs to tree i's partition under the k-th of the sorted
    distinct ``depths`` and equals ``chi2_statistic`` of that ``bin_pair``
    binning bit for bit, whatever the batching.
    """
    results = grow_trees(source, count, n, depths, kind, min_expected, z,
                         _read_statistics, workers)
    return (np.concatenate([n_bins for n_bins, _ in results]),
            np.concatenate([chi2s for _, chi2s in results]))


def _null_tree(n: int, seed: int, rep: int) -> tuple[RankedPair, int]:
    """Null replicate ``rep``: two uniform permutations and a binning seed."""
    rng = stream(seed, rep)
    s = rng.permutation(n) + 1
    t = rng.permutation(n) + 1
    return _trusted_pair(s, t, n), int(rng.integers(0, 2**63))


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
    grown and read off by ``tree_statistics``, over ``workers`` >= 1
    processes.  ``depths`` replace ``stop.max_depth``: only
    ``stop.min_expected`` is read.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    depths = check_growth_args(depths, kind, z)  # the recorded depths
    n_bins, chi2s = tree_statistics(partial(_null_tree, n, seed), n_sim, n, depths,
                                    kind, stop.min_expected, z, workers)
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
        depths=np.tile(np.array(depths, dtype=np.int64), n_sim),
        n_bins=n_bins.ravel(),
        chi2s=chi2s.ravel(),
        config=config,
    )


def _widened(gap_sorted: np.ndarray, window: int, min_count: int) -> int:
    """Half-width of a reference set, from its entries' sorted bin-count gaps.

    ``window`` if the entries within it number ``min_count``, else the
    smallest wider one whose entries do, or the largest gap.
    """
    k = min(min_count, gap_sorted.size) - 1
    return window if gap_sorted[k] <= window else int(gap_sorted[k])


def empirical_ps(null: NullTable, n_bins, chi2s, window: int = 2) -> np.ndarray:
    """``empirical_p`` of every observed (``n_bins[i]``, ``chi2s[i]``) pair.

    Each distinct observed bin count builds its reference set once, sorts
    its chi2 values and places all of its observations by binary search.
    """
    if null.size == 0:
        raise ValueError("empty null table")
    if window < 0:
        raise ValueError("window must be >= 0")
    n_bins = _integers(n_bins, "observed n_bin")
    chi2s = np.asarray(chi2s, dtype=float)
    bad = np.flatnonzero((n_bins < 1) | ~(np.isfinite(chi2s) & (chi2s >= 0)))  # -0.0 passes
    if bad.size:
        i = bad[0]
        raise ValueError(f"observed n_bin={int(n_bins[i])}, chi2={float(chi2s[i])}: "
                         "need n_bin >= 1 and a finite chi2 >= 0")
    out = np.empty(chi2s.size)
    levels, inverse = np.unique(n_bins, return_inverse=True)
    for i, nb in enumerate(levels.tolist()):
        gap = np.abs(null.n_bins - nb)
        gap_sorted = np.sort(gap)
        # a window that holds nothing widens until it holds 100 entries
        w = window if gap_sorted[0] <= window else _widened(gap_sorted, window, 100)
        ref = np.sort(null.chi2s[gap <= w])
        at = inverse == i
        n_ge = ref.size - np.searchsorted(ref, chi2s[at], side="left")
        out[at] = (1 + n_ge) / (1 + ref.size)
    return out


def empirical_p(
    null: NullTable, observed: tuple[int, float], window: int = 2
) -> float:
    """Add-one empirical p-value of an observed (n_bin, chi2) pair.

    Null entries whose bin count lies within ``window`` of the observed one
    form the reference set.  If the window captures nothing it widens
    symmetrically until it holds at least 100 entries or spans the table.
    Raises ``ValueError`` for an empty table, a window below 0, or an
    observed pair with an ``n_bin`` that is no integer, < 1 or outside int64,
    or a chi2 that is not finite and >= 0.
    """
    return float(empirical_ps(null, [observed[0]], [float(observed[1])], window)[0])


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
    if window < 0:
        raise ValueError("window must be >= 0")
    if null.size < min_count:
        raise ValueError(
            f"null table has {null.size} entries, fewer than min_count={min_count}"
        )
    levels = np.unique(null.n_bins)
    raw = []
    for nb in levels:
        gap = np.abs(null.n_bins - nb)
        sel = gap <= _widened(np.sort(gap), window, min_count)
        raw.append(float(np.quantile(null.chi2s[sel], q)))
    monotone = np.sort(np.asarray(raw))
    return {int(nb): float(v) for nb, v in zip(levels, monotone)}
