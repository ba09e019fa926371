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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class StopConfig:
    """Disjunction of criteria below which a bin is frozen instead of split."""

    max_depth: int
    min_expected: float = 10.0

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not 0 <= self.min_expected < math.inf:
            raise ValueError("min_expected must be finite and >= 0")


@dataclass(frozen=True)
class Binning:
    """A finished partition of rank space plus the provenance that made it."""

    bins: list[Bin] = field(repr=False)
    score_kind: str
    stop: StopConfig
    min_split_expected: float
    seed: int
    n: int

    def __post_init__(self):
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"score_kind must be one of {SCORE_KINDS}")

    @property
    def n_bin(self) -> int:
        return len(self.bins)


def _fmt_real(x: float) -> str:
    # 17 significant digits round-trips any IEEE double.
    return format(float(x), ".17g")


def _decimal_lists(values: np.ndarray, bounds: np.ndarray) -> list[str]:
    """Integers ``values[bounds[i]:bounds[i + 1]]`` as comma-separated decimals.

    Equal to ``str(run.tolist())[1:-1].replace(" ", "")`` for every run, in
    one vectorised pass.  Each value is one row of a byte matrix: a sign,
    its digits peeled off by division and right-aligned, and a comma, or a
    line end after a run's last value.  Unused leading bytes stay NUL and
    are deleted, and the runs are split apart at the line ends.
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
    runs = iter(text.tobytes().translate(None, b"\0").decode("ascii").split("\n"))
    # an empty run has no line end
    return [next(runs) if b > a else "" for a, b in zip(bounds.tolist(), bounds[1:].tolist())]


def binning_to_json(binning: Binning) -> str:
    """Serialize a Binning to its canonical JSON document.

    The field order is fixed and reals carry 17 significant digits, so equal
    binnings serialize to byte-identical documents.
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
    bins = binning.bins
    if not bins:
        return head + "]}"
    bounds = np.zeros(len(bins) + 1, dtype=np.intp)
    np.cumsum([b.observed for b in bins], out=bounds[1:])
    # every bin's point list, per margin in one pass
    ps = _decimal_lists(np.concatenate([b.points_s for b in bins]), bounds)
    pt = _decimal_lists(np.concatenate([b.points_t for b in bins]), bounds)
    parts = [
        f'{{"ls":{b.lower_s},"us":{b.upper_s},'
        f'"lt":{b.lower_t},"ut":{b.upper_t},'
        f'"depth":{b.depth},'
        f'"expected":{_fmt_real(b.expected)},'
        f'"observed":{b.observed},'
        f'"points_s":[{s}],"points_t":[{t}]}}'
        for b, s, t in zip(bins, ps, pt)
    ]
    return head + ",".join(parts) + "]}"
