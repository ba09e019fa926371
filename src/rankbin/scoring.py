"""Per-candidate split scores along one margin of a bin.

Candidate split coordinates for a margin are the sorted member coordinates
plus a pseudo-point one rank unit below the smallest member, which is what
lets a split carve off an empty child.  Scores are the post-split two-child
sums (the parent's own score is constant across candidates, so the argmax
is unchanged by dropping it).  A candidate producing a child with expected
count below ``z`` on either side is gated to a score of zero; zero-width
children (possible at both ends of the candidate vector) are gated
unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CandidateVector:
    """Split candidates on one margin: [lower, pseudo, coords..., upper].

    ``w`` has length m = o + 3 for a bin with o member points.  Interior
    entries w[1..m-2] are the candidates; w[1] is the pseudo-point, which may
    coincide with the lower bound, and w[m-2] (the largest member coordinate)
    may coincide with the upper bound.  Both coincidences are zero-width
    splits and score zero.
    """

    w: np.ndarray
    e: float
    z: float = 5.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if self.e <= 0:
            raise ValueError("expected count e must be > 0")
        if self.z < 0:
            raise ValueError("minimum split expected z must be >= 0")
        if w.ndim != 1 or w.size < 3:
            raise ValueError("candidate vector needs at least 3 entries")
        inner = w[1:-1]
        if inner.size > 1 and not np.all(np.diff(inner) > 0):
            raise ValueError("candidate coordinates must be strictly increasing")
        if not (w[0] <= w[1] and w[-2] <= w[-1]):
            raise ValueError("bounds must enclose the candidates")

    @property
    def m(self) -> int:
        return int(self.w.size)


def lower_expected(coord, lower, upper, e):
    """Expected count of the lower child of a cut at ``coord`` in (lower, upper].

    Shared by the size gate and ``splitting.split_at``, so a gate-passed
    split never stores a child expected a rounding error below the floor.
    """
    return (coord - lower) * (e / (upper - lower))


def _score(
    w: np.ndarray, e: float, z: float, kind: str,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gated scores and size-gate indicator per candidate of a raw ``w``.

    ``w`` is laid out as in ``CandidateVector`` but not validated: the
    splitter builds it from sorted rank coordinates, strictly increasing by
    construction.  With z == 0 the positivity guards exclude zero-width
    children, so no score divides by zero; a cut on the upper bound is also
    excluded by coordinate, as there e - e_lo can round to 2e-16, not 0.
    """
    inner = w[1:-1]
    e_lo = lower_expected(inner, w[0], w[-1], e)
    e_hi = e - e_lo
    ok = (e_lo >= z) & (e_hi >= z) & (e_lo > 0) & (e_hi > 0) & (inner < w[-1])
    if kind == "random":
        return np.where(ok, rng.random(ok.size), 0.0), ok
    if kind not in ("chi", "mi"):
        raise ValueError(f"unknown score kind {kind!r}")
    o = ok.size - 1
    scores = np.zeros(o + 1)
    lo, hi = e_lo[ok], e_hi[ok]
    olo = np.arange(o + 1, dtype=float)[ok]
    if kind == "chi":
        scores[ok] = (olo - lo) ** 2 / lo + (o - olo - hi) ** 2 / hi
        return scores, ok
    ohi = o - olo
    term_lo = np.zeros(olo.size)
    term_hi = np.zeros(olo.size)
    pos = olo > 0
    term_lo[pos] = (olo[pos] / o) * np.log(olo[pos] / lo[pos])
    pos = ohi > 0
    term_hi[pos] = (ohi[pos] / o) * np.log(ohi[pos] / hi[pos])
    scores[ok] = term_lo + term_hi
    return scores, ok


def child_expectations(cand: CandidateVector) -> np.ndarray:
    """Expected count of the lower child for each interior candidate."""
    return lower_expected(cand.w[1:-1], cand.w[0], cand.w[-1], cand.e)


def gate_mask(cand: CandidateVector) -> np.ndarray:
    """Size-gate indicator per candidate: both children wide enough."""
    return _score(cand.w, cand.e, cand.z, "chi")[1]


def chi_scores(cand: CandidateVector) -> np.ndarray:
    """Two-child chi-squared sums for each candidate, gated by size."""
    return _score(cand.w, cand.e, cand.z, "chi")[0]


def mi_scores(cand: CandidateVector) -> np.ndarray:
    """Two-child divergence-from-uniformity sums for each candidate.

    Terms follow the convention 0*log(0/x) = 0.  Values may be negative:
    a bin holding fewer points than it expects has log-ratios below zero on
    both sides.
    """
    return _score(cand.w, cand.e, cand.z, "mi")[0]


def rand_scores(cand: CandidateVector, rng: np.random.Generator) -> np.ndarray:
    """Uniform(0,1) draw per candidate times the size-gate indicator.

    One draw is consumed per candidate whether or not it is gated, so the
    stream position after a call depends only on the candidate count.
    """
    return _score(cand.w, cand.e, cand.z, "random", rng)[0]
