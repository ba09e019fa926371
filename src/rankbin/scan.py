"""Pairwise dependence scan over the columns of a numeric matrix.

Every unordered column pair is ranked, recursively binned, and scored; the
observed statistic is placed against a supplied null table to give an
empirical p-value.  Inputs are expected to be approximately serially
independent pseudo-observations -- any time-series whitening (e.g. fitting
and residualizing a volatility model on returns) happens upstream.

Each pair derives its own random substream from the scan seed and the two
column indices, so results do not depend on worker count or scheduling.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bins import Binning, StopConfig
from .engine import bin_pair
from .ranks import RankedPair, rank
from .stats import NullTable, chi2_statistic, empirical_p

logger = logging.getLogger(__name__)


class IngestionError(ValueError):
    """A data file could not be interpreted as a numeric column table."""


@dataclass(frozen=True)
class ScanRecord:
    """One column pair's result."""

    name_a: str
    name_b: str
    n_bin: int
    chi2: float
    p_emp: float


def load_matrix(path) -> dict[str, np.ndarray]:
    """Read a CSV of named numeric columns, dropping incomplete ones.

    The first row is a header of unique column names.  Cells must be
    numeric and finite; an empty field marks a missing value, and any column
    holding one is dropped with a warning.  Malformed input raises
    IngestionError naming the offending row and column.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestionError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise IngestionError(f"{path}: duplicate column names {dupes}")
            ncol = len(header)
            cols: list[list[float]] = [[] for _ in range(ncol)]
            missing: set[int] = set()
            for i, row in enumerate(reader, start=2):
                if len(row) != ncol:
                    raise IngestionError(
                        f"{path}: row {i} has {len(row)} cells, expected {ncol}"
                    )
                for j, cell in enumerate(row):
                    cell = cell.strip()
                    if cell == "":
                        missing.add(j)
                        cols[j].append(np.nan)
                        continue
                    try:
                        cols[j].append(float(cell))
                    except ValueError:
                        raise IngestionError(
                            f"{path}: row {i}, column {header[j]!r}: "
                            f"non-numeric cell {cell!r}"
                        ) from None
    except OSError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    for j in sorted(missing):
        logger.warning("dropping column %r: missing values", header[j])
    table = {
        name: np.asarray(col, dtype=float)
        for j, (name, col) in enumerate(zip(header, cols))
        if j not in missing
    }
    for name, col in table.items():
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise IngestionError(
                f"{path}: row {int(bad[0]) + 2}, column {name!r}: "
                f"non-finite cell {float(col[bad[0]])!r}"
            )
    return table


def neg_log_returns(prices) -> np.ndarray:
    """Negative log price relatives, -log(S_t / S_{t-1})."""
    p = np.asarray(prices, dtype=float)
    if p.size < 2:
        raise ValueError("need at least 2 prices")
    if not np.all(np.isfinite(p)) or np.any(p <= 0):
        raise ValueError("prices must be finite and > 0")
    return -np.diff(np.log(p))


def _check_null_config(null: NullTable, n: int, kind: str, stop: StopConfig, z: float):
    if null.n > 0 and null.n != n:
        raise ValueError(f"null table was simulated for n={null.n}, not the {n} rows scanned")
    cfg = null.config
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


# Per-process scan context, installed once per worker by _scan_init so that
# the column data is not re-pickled for every pair.
_SCAN_STATE: dict = {}


def _scan_init(cols, kind, stop, z, base_seed) -> None:
    _SCAN_STATE["ctx"] = (cols, kind, stop, z, base_seed)


def _seeded_binning(cols, ia, ib, kind, stop, z, base_seed) -> Binning:
    """Rank and bin one column pair from its own substream (scan and plots)."""
    ss = np.random.SeedSequence(entropy=(base_seed, ia, ib))
    ss_a, ss_b, ss_bin = ss.spawn(3)
    s = rank(cols[ia], np.random.default_rng(ss_a))
    t = rank(cols[ib], np.random.default_rng(ss_b))
    pair = RankedPair(s=s, t=t, n=s.size)
    bin_seed = int(ss_bin.generate_state(1, np.uint64)[0])
    return bin_pair(pair, kind=kind, stop=stop, z=z, seed=bin_seed)


def _pair_stat(idx: tuple[int, int]) -> tuple[int, int, int, float]:
    cols, kind, stop, z, base_seed = _SCAN_STATE["ctx"]
    ia, ib = idx
    binning = _seeded_binning(cols, ia, ib, kind, stop, z, base_seed)
    chi2, n_bin = chi2_statistic(binning)
    return ia, ib, n_bin, chi2


def pair_binning(
    table: dict[str, np.ndarray],
    name_a: str,
    name_b: str,
    kind: str,
    stop: StopConfig,
    z: float,
    base_seed: int,
) -> Binning:
    """Rebuild the exact binning the scan used for one named pair."""
    names = list(table)
    ia, ib = names.index(name_a), names.index(name_b)
    return _seeded_binning(list(table.values()), ia, ib, kind, stop, z, base_seed)


def scan_pairs(
    table: dict[str, np.ndarray],
    kind: str,
    stop: StopConfig,
    z: float,
    base_seed: int,
    null: NullTable,
    window: int = 2,
    workers: int = 1,
) -> list[ScanRecord]:
    """Score every unordered column pair and sort by descending chi2.

    Columns are ranked afresh for each pair (with that pair's substream) so
    tie-breaking draws stay independent across the scan.  The null table
    must have been simulated for the same number of rows (when it records
    one) and under the same kind/stop/z configuration.
    """
    names = list(table)
    if len(names) < 2:
        raise ValueError("need at least 2 columns to scan")
    cols = list(table.values())
    _check_null_config(null, cols[0].size, kind, stop, z)
    jobs = [
        (ia, ib)
        for ia in range(len(names))
        for ib in range(ia + 1, len(names))
    ]
    ctx = (cols, kind, stop, z, base_seed)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_scan_init, initargs=ctx
        ) as pool:
            chunk = max(1, len(jobs) // (8 * workers))
            stats = list(pool.map(_pair_stat, jobs, chunksize=chunk))
    else:
        _scan_init(*ctx)
        stats = [_pair_stat(j) for j in jobs]
    records = [
        ScanRecord(
            name_a=names[ia],
            name_b=names[ib],
            n_bin=n_bin,
            chi2=chi2,
            p_emp=empirical_p(null, (n_bin, chi2), window=window),
        )
        for ia, ib, n_bin, chi2 in stats
    ]
    records.sort(key=lambda r: -r.chi2)
    return records


def top_k(records: list[ScanRecord], k: int) -> list[ScanRecord]:
    """The k records with the largest statistics."""
    _check_k(records, k)
    return records[:k]


def bottom_k(records: list[ScanRecord], k: int) -> list[ScanRecord]:
    """The k records with the smallest statistics, still in descending order."""
    _check_k(records, k)
    return records[len(records) - k:]


def middle_k(records: list[ScanRecord], k: int) -> list[ScanRecord]:
    """k records centred on the median rank."""
    _check_k(records, k)
    median = (len(records) - 1) // 2
    start = median - (k - 1) // 2
    start = max(0, min(start, len(records) - k))
    return records[start:start + k]


def _check_k(records, k):
    if not 0 <= k <= len(records):
        raise ValueError(f"k={k} out of range for {len(records)} records")


def records_to_csv(records: list[ScanRecord]) -> str:
    """Scan results as CSV with 10-significant-digit reals."""
    lines = ["name_a,name_b,n_bin,chi2,p_emp"]
    for r in records:
        lines.append(
            f"{r.name_a},{r.name_b},{r.n_bin},"
            f"{format(r.chi2, '.10g')},{format(r.p_emp, '.10g')}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(records: list[ScanRecord], path) -> None:
    Path(path).write_text(records_to_csv(records))
