"""Per-candidate split scores along the margins of many bins at once.

Candidate split coordinates for a margin are the sorted member coordinates
plus a pseudo-point one rank unit below the smallest member, which is what
lets a split carve off an empty child.  Scores are the post-split two-child
sums (the parent's own score is constant across candidates, so the argmax
is unchanged by dropping it).  A candidate producing a child with expected
count below ``z`` on either side is gated to a score of zero; zero-width
children (possible at both ends of the candidate vector) are gated
unconditionally.

``candidate_scores`` is the one scorer.  It works elementwise, so the
engine calls it on the candidates of every bin of a level at once, and
``chi_scores``, ``mi_scores``, ``rand_scores`` and ``gate_mask`` are
one-margin calls of it on a validated ``CandidateVector``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bins import SCORE_KINDS


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

    Shared by the engine's children, ``splitting.split_at`` and the halving
    test, and evaluated the same way by the size gate, so a gate-passed
    split never stores a child expected a rounding error below the floor.
    """
    return (coord - lower) * (e / (upper - lower))


def candidate_scores(coord, olo, o, lower, dens, e, z: float, kind: str, draws=None):
    """Scores and size-gate indicator of candidate cuts, elementwise.

    A cut at ``coord`` on a margin with lower bound ``lower``, ``dens`` =
    e / (upper - lower) expected points per rank unit and ``e`` expected in
    all, with ``olo`` of the margin's ``o`` members at or below it; all of
    them floats (mixed integer and float arithmetic is several times
    slower, and gives the same values).  Kind
    "random" scores each cut with its entry of ``draws``.  Arguments
    broadcast: one margin's candidates score against scalars, and a whole
    level's against per-candidate arrays.  The score of a gated cut is
    meaningless, and a cut on the upper bound is not gated here (there
    e - e_lo can round to 2e-16 instead of 0): callers test the last
    candidate of each margin by coordinate.
    """
    # lower_expected, with e / (upper - lower) evaluated once per margin
    e_lo = coord - lower
    e_lo *= dens
    e_hi = e - e_lo
    # With z > 0 the floor keeps both children wider than zero; with z == 0
    # the positivity tests exclude zero-width children, so no kept score
    # divides by zero.
    ok = (e_lo >= z) & (e_hi >= z) if z > 0 else (e_lo > 0) & (e_hi > 0)
    if kind == "random":
        return draws, ok
    if kind not in ("chi", "mi"):
        raise ValueError(f"unknown score kind {kind!r}")
    ohi = o - olo
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "chi":
            # (olo - e_lo)**2 / e_lo + (ohi - e_hi)**2 / e_hi, in place
            lo = olo - e_lo
            lo *= lo
            lo /= e_lo
            hi = ohi - e_hi
            hi *= hi
            hi /= e_hi
            lo += hi
            return lo, ok
        return (np.where(olo > 0, (olo / o) * np.log(olo / e_lo), 0.0)
                + np.where(ohi > 0, (ohi / o) * np.log(ohi / e_hi), 0.0)), ok


def _one_segment(cand: CandidateVector, kind: str, rng=None):
    """Gated scores (0 where gated) and gate of one candidate vector."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    w = cand.w
    inner = w[1:-1]
    draws = rng.random(inner.size) if kind == "random" else None
    scores, ok = candidate_scores(inner, np.arange(inner.size, dtype=float),
                                  inner.size - 1.0, w[0], cand.e / (w[-1] - w[0]),
                                  cand.e, cand.z, kind, draws)
    ok[-1] &= inner[-1] < w[-1]
    return np.where(ok, scores, 0.0), ok


def child_expectations(cand: CandidateVector) -> np.ndarray:
    """Expected count of the lower child for each interior candidate."""
    return lower_expected(cand.w[1:-1], cand.w[0], cand.w[-1], cand.e)


def gate_mask(cand: CandidateVector) -> np.ndarray:
    """Size-gate indicator per candidate: both children wide enough."""
    return _one_segment(cand, "chi")[1]


def chi_scores(cand: CandidateVector) -> np.ndarray:
    """Two-child chi-squared sums for each candidate, gated by size."""
    return _one_segment(cand, "chi")[0]


def mi_scores(cand: CandidateVector) -> np.ndarray:
    """Two-child divergence-from-uniformity sums for each candidate.

    Terms follow the convention 0*log(0/x) = 0.  Values may be negative:
    a bin holding fewer points than it expects has log-ratios below zero on
    both sides.
    """
    return _one_segment(cand, "mi")[0]


def rand_scores(cand: CandidateVector, rng: np.random.Generator) -> np.ndarray:
    """Uniform(0,1) draw per candidate times the size-gate indicator.

    One draw is consumed per candidate whether or not it is gated, so the
    stream position after a call depends only on the candidate count.
    """
    return _one_segment(cand, "random", rng)[0]
