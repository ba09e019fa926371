"""Bin data model, stop criteria, and partition serialization.

A bin is a half-open axis-aligned rectangle ``(lower_s, upper_s] x
(lower_t, upper_t]`` in rank space, carrying the member points that fall in
it, its expected count under independence (area / n) and its depth (number
of binary splits from the root).  The half-open convention means a point
whose coordinate equals a split line lands in the lower bin; rank
coordinates start at 1, so the root's lower bound 0 is never occupied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCORE_KINDS = ("chi", "mi", "random")


@dataclass(frozen=True, eq=False)
class Bin:
    """One rectangular rank-space region with its member points."""

    lower_s: int
    upper_s: int
    lower_t: int
    upper_t: int
    points_s: np.ndarray
    points_t: np.ndarray
    expected: float
    depth: int

    @property
    def observed(self) -> int:
        return int(self.points_s.size)

    @property
    def side_s(self) -> int:
        return self.upper_s - self.lower_s

    @property
    def side_t(self) -> int:
        return self.upper_t - self.lower_t

    @property
    def area(self) -> int:
        return self.side_s * self.side_t


def integral(x) -> bool:
    """Whether ``x`` equals an int: ``6``, ``6.0`` and numpy ints do."""
    try:
        return x == int(x)
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class StopConfig:
    """Disjunction of criteria below which a bin is frozen instead of split."""

    max_depth: int
    min_expected: float = 10.0

    def __post_init__(self):
        if not integral(self.max_depth):
            raise ValueError("max_depth must be an integer")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not 0 <= self.min_expected < math.inf:
            raise ValueError("min_expected must be finite and >= 0")


class Binning:
    """A finished partition of rank space plus the provenance that made it.

    Held by column in partition order: bin i spans ``(lower_s[i], upper_s[i]]
    x (lower_t[i], upper_t[i]]``, expects ``expected[i]`` points at depth
    ``depth[i]`` and holds ``observed[i]``, ``points_s``/``points_t[offsets[i]:
    offsets[i + 1]]`` in original order.  ``columns`` is ``(lower_s, upper_s,
    lower_t, upper_t, expected, depth, offsets, points_s, points_t)``, else
    ``bins`` (a list of ``Bin``) gives them; ``bins`` lists ``Bin`` views of
    the columns, built on first use.
    """

    def __init__(self, bins: list[Bin] | None, score_kind: str, stop: StopConfig,
                 min_split_expected: float, seed: int, n: int, *, columns=None):
        if score_kind not in SCORE_KINDS:
            raise ValueError(f"score_kind must be one of {SCORE_KINDS}")
        if columns is None:
            if any(b.points_s.size != b.points_t.size for b in bins):
                raise ValueError("a bin's points_s and points_t differ in length")
            ints = np.array([(b.lower_s, b.upper_s, b.lower_t, b.upper_t, b.depth, b.observed)
                             for b in bins], dtype=np.int64).reshape(-1, 6).T
            columns = (*ints[:4], np.array([b.expected for b in bins], dtype=float), ints[4],
                       np.concatenate(([0], np.cumsum(ints[5]))),
                       *(np.concatenate([getattr(b, f) for b in bins] or [np.zeros(0, np.int64)])
                         for f in ("points_s", "points_t")))
        (self.lower_s, self.upper_s, self.lower_t, self.upper_t, self.expected,
         self.depth, self.offsets, self.points_s, self.points_t) = columns
        self.n_bin, self.observed = self.expected.size, np.diff(self.offsets)
        self.score_kind, self.stop, self.min_split_expected = score_kind, stop, min_split_expected
        self.seed, self.n, self._bins = seed, n, bins

    @property
    def bins(self) -> list[Bin]:
        if self._bins is None:
            at = self.offsets.tolist()
            cols = (c.tolist() for c in (self.lower_s, self.upper_s, self.lower_t,
                                         self.upper_t, self.expected, self.depth))
            self._bins = [Bin(ls, us, lt, ut, self.points_s[a:b], self.points_t[a:b], e, d)
                          for ls, us, lt, ut, e, d, a, b in zip(*cols, at, at[1:])]
        return self._bins


def _fmt_real(x: float) -> str:
    # 17 significant digits round-trips any IEEE double.
    return format(float(x), ".17g")


def _decimal_lists(values: np.ndarray, bounds: np.ndarray) -> list[str]:
    """Integers ``values[bounds[i]:bounds[i + 1]]`` as comma-separated decimals,
    ``str(run.tolist())[1:-1].replace(" ", "")`` of every run, in one pass.

    Each value is a row of a byte matrix: a sign, its digits peeled off by
    division, and a comma, or a line end after a run's last value; unused
    bytes stay NUL and are deleted, and the runs split at the line ends.
    """
    if values.dtype.kind not in "iu":
        raise ValueError("bin points must be integers")
    neg = values < 0
    # magnitudes: unsigned negation also maps -2**63 onto 2**63
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    top = int(mag.max()) if mag.size else 0
    if top < 2**32:
        mag = mag.astype(np.uint32)
    width = len(str(top))
    text = np.zeros((mag.size, width + 2), dtype=np.uint8)
    text[neg, 0] = ord("-")
    text[:, -1] = ord(",")
    text[bounds[1:][np.diff(bounds) > 0] - 1, -1] = ord("\n")
    text[:, width] = mag % 10 + ord("0")
    for col in range(width - 1, 0, -1):
        mag = mag // 10
        text[:, col] = (mag % 10 + ord("0")) * (mag > 0)
    runs = text.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    # an empty run has no line end
    out = np.full(bounds.size - 1, "", dtype=object)
    out[np.diff(bounds) > 0] = np.array(runs[:-1], dtype=object)
    return out.tolist()


def binning_to_json(binning: Binning) -> str:
    """Serialize a Binning to its canonical JSON document.

    The field order is fixed and reals carry 17 significant digits, so equal
    binnings serialize to byte-identical documents.  The split floor z
    (``min_split_expected``) is not written, so a document does not say
    which z grew it.
    """
    stop = binning.stop
    head = (
        f'{{"n":{binning.n},'
        f'"score_kind":"{binning.score_kind}",'
        f'"seed":{binning.seed},'
        f'"stop":{{"max_depth":{stop.max_depth},'
        f'"min_expected":{_fmt_real(stop.min_expected)},'
        f'"stop_empty":true}},'
        f'"bins":['
    )
    if not binning.n_bin:
        return head + "]}"
    # every bin's point list, per margin in one pass
    ps = _decimal_lists(binning.points_s, binning.offsets)
    pt = _decimal_lists(binning.points_t, binning.offsets)
    # '%.17g' is _fmt_real's format
    row = ('{"ls":%d,"us":%d,"lt":%d,"ut":%d,"depth":%d,"expected":%.17g,'
           '"observed":%d,"points_s":[%s],"points_t":[%s]}')
    cols = (binning.lower_s, binning.upper_s, binning.lower_t, binning.upper_t,
            binning.depth, binning.expected, binning.observed)
    return "".join((head, ",".join(map(row.__mod__, zip(*(c.tolist() for c in cols), ps, pt))),
                    "]}"))
