"""Pairwise dependence scan over the columns of a numeric matrix.

Every unordered column pair is ranked, recursively binned, and scored; the
observed statistic is placed against a supplied null table to give an
empirical p-value.  Inputs are expected to be approximately serially
independent pseudo-observations -- any time-series whitening (e.g. fitting
and residualizing a volatility model on returns) happens upstream.

Each pair draws from its own streams of the scan seed and its two column
indices (``substreams``), so results do not depend on worker count or
scheduling.  A column with no tie gets the same ranks from any stream, so it
is ranked once per call and its read-only ranks are shared by every pair
that holds it (a pool worker receives them once, with the tree source); only
a tied column is ranked per pair, from that pair's stream.
Pairs are grown and read off as null replicates are, by
``stats.tree_statistics``, and their p-values placed in one pass by
``stats.empirical_ps``; ``pair_binnings`` rebuilds chosen pairs' binnings
from the same tree source, through the same runner (``engine.grow_trees``).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from .bins import Binning, StopConfig
from .engine import tree_binnings
from .ranks import RankedPair, _sample, _shuffled_ranks, _trusted_pair, _untied_ranks
from .stats import NullTable, empirical_ps, tree_statistics
from .substreams import pair_seeds, stream

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
    IngestionError naming the offending row and column, and a file that is
    not UTF-8 text raises it naming the file.

    A plain file -- no ``"`` anywhere, a header row of unique names, at
    least one data row, and every line a full row of non-empty cells -- is
    read by a vectorised tokeniser and decimal parser (``plaincsv``), in
    blocks of whole lines.  One byte pass per block finds the field ends
    (``,``, and LF, CR or CRLF ending a row, as for ``csv``) and checks the
    block before any of it is parsed: an empty cell, a blank line, a row of
    the wrong length or a field beyond ``csv``'s size limit declines the
    file.

    Grammar and exactness.  A token
    ``[-]digits[.digits][(e|E)[+|-]digits]``, with a digit on at least one
    side of the point, at most 24 bytes before the ``e`` and at most 7 after
    it, spells an integer mantissa m and a decimal exponent q; m < 10**19 is
    read exactly in 64 bits (each mantissa is up to three little-endian
    words ending at its last byte, whose digits SWAR masks and multiplies
    group).  If m <= 2**53 and |q| <= 22, both m and 10**|q| are exact
    doubles, so one IEEE multiply or divide rounds m * 10**q correctly
    (Clinger's fast path).  Otherwise, if |q| <= 27, the same operation runs
    in the x87 80-bit long double, where m and 10**|q| are also exact
    (10**27 = 2**27 * 5**27 and 5**27 < 2**63): the one rounding to 64 bits
    leaves the value on the same side of every double midpoint (those have
    54 bits) unless it lands on one, so its rounding to double is correct
    whenever the low 11 bits of the 64-bit significand are not exactly a
    half; a result on a midpoint is handed on.  That wide step runs only
    where numpy's long double is that format (``plaincsv._WIDE``).  The sign
    rides on the power of ten, so ``-0`` reads as ``-0.0``.  Every other
    token -- outside the grammar, longer, or handed on -- goes to
    ``float()`` of its stripped text, as ``_read_cells`` converts it, so
    each value equals ``float()``'s bit for bit.

    A token that ``float()`` refuses or reads as non-finite, bytes that are
    not UTF-8, and every file the checks decline take the per-cell ``csv``
    loop (``_read_cells``), which alone words the errors and the
    dropped-column warnings; both paths give identical arrays for any file
    the fast one accepts.  A file declined at a later block has parsed the
    blocks before it, so a missing value late in a large file costs the loop
    and a few milliseconds more.
    """
    return _read_table(path)[1]


def _read_table(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """``load_matrix``'s reading: the header's names, dropped columns' too,
    and the table."""
    # imported on first use, so a process that reads no CSV, such as a null
    # simulation, does not load the parser
    from .plaincsv import _read_plain

    table = _read_plain(path)  # which drops no column
    return _read_cells(path) if table is None else (list(table), table)


def _read_cells(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Per-cell ``csv`` reading of ``_read_table``: any file, every error message."""
    i = 0  # the last row read; csv.Error, such as an over-long cell, is in the next
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestionError(f"{path}: empty file") from None
            i = 1
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
    except csv.Error as exc:
        raise IngestionError(f"{path}: row {i + 1}: {exc}") from None
    except UnicodeDecodeError as exc:  # decoded a chunk at a time, so no row to name
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason}, byte "
                             f"0x{exc.object[exc.start]:02x})") from None
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
    return header, table


def neg_log_returns(prices) -> np.ndarray:
    """Negative log price relatives, -log(S_t / S_{t-1})."""
    p = np.asarray(prices, dtype=float)
    if p.size < 2:
        raise ValueError("need at least 2 prices")
    if not np.all(np.isfinite(p)) or np.any(p <= 0):
        raise ValueError("prices must be finite and > 0")
    return -np.diff(np.log(p))


def _columns(table: dict[str, np.ndarray]) -> tuple[list[str], list[np.ndarray], int]:
    """The table's names, columns and row count; columns of unequal length are refused."""
    names, cols = list(table), list(table.values())
    n = cols[0].size if cols else 0
    for name, col in zip(names, cols):
        if col.size != n:
            raise ValueError(f"column {name!r} has {col.size} rows, not the {n} of "
                             f"column {names[0]!r}")
    return names, cols, n


def _pair_source(cols, jobs, base_seed: int) -> partial:
    """The tree source of column pairs ``jobs``: each column a job holds is
    checked once, as ``rank`` checks a sample, and ranked here (read-only) if
    tie-free, else kept as its float sample; every binning seed is hashed."""
    held: list[np.ndarray | None] = [None] * len(cols)
    for j in sorted({j for job in jobs for j in job}):
        v = _sample(cols[j])
        held[j] = _untied_ranks(v)
        if held[j] is None:
            held[j] = v
        else:
            held[j].flags.writeable = False
    return partial(_seeded_pair, held, jobs, base_seed, pair_seeds(base_seed, jobs))


def _seeded_pair(held, jobs, base_seed, seeds, i) -> tuple[RankedPair, int]:
    """Column pair ``jobs[i]`` as ranks, and its binning seed ``seeds[i]``; a
    column held as a tied sample is ranked from the pair's stream of spawn key 0 (1)."""
    s, t = (c if c.dtype == np.int64 else _shuffled_ranks(
                c, stream(base_seed, *jobs[i], spawn_key=(k,)).permutation(c.size))
            for k, c in enumerate(held[j] for j in jobs[i]))
    return _trusted_pair(s, t, s.size), seeds[i]


def pair_binnings(
    table: dict[str, np.ndarray],
    named_pairs: list[tuple[str, str]],
    kind: str,
    stop: StopConfig,
    z: float,
    base_seed: int,
) -> list[Binning]:
    """Rebuild the exact binnings the scan used for the named pairs.

    The pairs come from the scan's own tree source and grow in batches
    (``engine.tree_binnings``), not one by one.
    """
    names, cols, n = _columns(table)
    jobs = [(names.index(a), names.index(b)) for a, b in named_pairs]
    d = stop.max_depth
    binnings = tree_binnings(_pair_source(cols, jobs, base_seed), len(jobs), n, [d],
                             kind, stop.min_expected, z)
    return [b[d] for b in binnings]


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

    Each column is checked once; a tie-free one is ranked once and its ranks
    shared, a tied one is ranked afresh for each pair, from that pair's
    stream, so tie-breaking draws stay independent across the scan.  Every
    pair's binning seed is hashed in one array pass (``substreams``).  Pairs
    are grown and read off in batches by ``stats.tree_statistics``.  The
    matrix needs columns of equal length and a row, and the null table must
    have been simulated for the same number of rows (when it records one)
    and under the same kind/stop/z configuration (``NullTable.check_config``);
    these, ``window`` >= 0, ``workers`` >= 1, the kind and z are checked
    before any tree is grown.
    """
    names, cols, n = _columns(table)
    if len(names) < 2:
        raise ValueError("need at least 2 columns to scan")
    if n < 1:
        raise ValueError("need at least 1 row to scan")
    null.check_config(n, kind, stop, z)
    if window < 0:
        raise ValueError("window must be >= 0")
    jobs = list(combinations(range(len(names)), 2))
    n_bins, chi2s = tree_statistics(_pair_source(cols, jobs, base_seed), len(jobs), n,
                                    [stop.max_depth], kind, stop.min_expected, z, workers)
    p_emp = empirical_ps(null, n_bins[:, 0], chi2s[:, 0], window).tolist()
    records = [
        ScanRecord(name_a=names[ia], name_b=names[ib], n_bin=n_bin, chi2=chi2, p_emp=p)
        for (ia, ib), n_bin, chi2, p in zip(jobs, n_bins[:, 0].tolist(),
                                            chi2s[:, 0].tolist(), p_emp)
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
