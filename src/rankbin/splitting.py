"""Choosing and executing the best binary split of one bin.

``max_score_split`` builds the candidate coordinates of both margins, scores
them with the requested rule, and splits at the winning coordinate.  Candidates
zeroed by the size gate are not selectable: the gate marks them forbidden,
and treating their zeros as real scores would let them outrank genuinely
negative scores (possible under mi scoring) or mask a flat score function.

When the score function is flat across the eligible candidates of both
margins -- the degenerate case, e.g. the uniform root bin, or a bin whose
points sit exactly on the diagonal so every split looks alike -- the bin is
instead halved at the ceiling of its midpoint, on the margin with the
larger common score, or on a random margin when those tie.  A halving that
would undercut the size floor z (possible on an odd side when expected
barely exceeds 2z, since the ceiling makes the halves unequal) falls back
to the other margin, and if both margins would undercut it the bin is
reported unsplittable so the caller can freeze it.
"""

from __future__ import annotations

import numpy as np

from .bins import Bin
from .scoring import _score, lower_expected


def split_at(b: Bin, margin: str, coord: int) -> tuple[Bin, Bin]:
    """Split a bin at ``coord`` on margin ``'s'`` or ``'t'``.

    The lower child keeps the half-open interval (lower, coord], so member
    points sitting exactly on the split line land in the lower child.
    Expected counts divide in proportion to side length.
    """
    if margin not in ("s", "t"):
        raise ValueError("margin must be 's' or 't'")
    lower = b.lower_s if margin == "s" else b.lower_t
    upper = b.upper_s if margin == "s" else b.upper_t
    if not (lower < coord < upper):
        raise ValueError(
            f"split coordinate {coord} outside open interval ({lower}, {upper})"
        )
    coords = b.points_s if margin == "s" else b.points_t
    below = coords <= coord
    e_lo = lower_expected(coord, lower, upper, b.expected)
    e_hi = b.expected - e_lo
    if margin == "s":
        lo = Bin(b.lower_s, coord, b.lower_t, b.upper_t,
                 b.points_s[below], b.points_t[below], e_lo, b.depth + 1)
        hi = Bin(coord, b.upper_s, b.lower_t, b.upper_t,
                 b.points_s[~below], b.points_t[~below], e_hi, b.depth + 1)
    else:
        lo = Bin(b.lower_s, b.upper_s, b.lower_t, coord,
                 b.points_s[below], b.points_t[below], e_lo, b.depth + 1)
        hi = Bin(b.lower_s, b.upper_s, coord, b.upper_t,
                 b.points_s[~below], b.points_t[~below], e_hi, b.depth + 1)
    return lo, hi


class UnsplittableBinError(RuntimeError):
    """No split of this bin can respect the minimum-size floor."""


def _halve_coord(lower: int, upper: int) -> int:
    # ceiling of the midpoint on integer bounds
    return (lower + upper + 1) // 2


def _halving_ok(b: Bin, margin: str, z: float) -> bool:
    """Whether a margin can be halved with both children's expected >= z.

    Evaluates the exact child expectations a halving split would store.
    """
    if margin == "s":
        lower, upper, side = b.lower_s, b.upper_s, b.side_s
    else:
        lower, upper, side = b.lower_t, b.upper_t, b.side_t
    if side < 2:
        return False
    if z <= 0:
        return True
    e_lo = lower_expected(_halve_coord(lower, upper), lower, upper, b.expected)
    return e_lo >= z and b.expected - e_lo >= z


def _margin_summary(scores: np.ndarray, ok: np.ndarray):
    """(flat, common-or-best score, index of the first best eligible candidate).

    Flat means the margin offers no informative choice: either nothing is
    eligible (score 0, index -1) or at least two eligible candidates all
    carry one identical score.  A margin with a single eligible candidate
    is not flat -- that candidate is simply its best.  First means lowest
    coordinate, the deterministic tie rule within a margin.
    """
    if not ok.any():
        return True, 0.0, -1
    idx = np.flatnonzero(ok)
    vals = scores[idx]
    k = int(np.argmax(vals))
    flat = bool(idx.size > 1 and np.all(vals == vals[0]))
    return flat, float(vals[k]), int(idx[k])


def max_score_split(
    b: Bin, kind: str, z: float, rng: np.random.Generator
) -> tuple[Bin, Bin]:
    """Score both margins of a bin and split at the best candidate.

    Randomness (random-score draws and the degenerate-tie margin pick) comes
    from ``rng``; s-margin draws are consumed before t-margin draws, then
    the tie pick if one is needed.
    """
    if b.observed == 0:
        raise RuntimeError("cannot split an empty bin")
    margins = []
    for lower, coords, upper in ((b.lower_s, b.points_s, b.upper_s),
                                 (b.lower_t, b.points_t, b.upper_t)):
        # [lower, pseudo-point, sorted members..., upper], as CandidateVector
        coords = np.sort(coords)
        w = np.concatenate(([lower, coords[0] - 1], coords, [upper])).astype(float)
        margins.append((w, *_margin_summary(*_score(w, b.expected, z, kind, rng))))
    (w_s, s_flat, s_best, s_idx), (w_t, t_flat, t_best, t_idx) = margins

    if s_flat and t_flat:
        # Degenerate: no candidate is better than any other, so halve a
        # margin at its midpoint.
        if s_best > t_best:
            margin = "s"
        elif s_best < t_best:
            margin = "t"
        else:
            margin = "s" if rng.random() < 0.5 else "t"
        other = "t" if margin == "s" else "s"
        if not _halving_ok(b, margin, z):
            if not _halving_ok(b, other, z):
                raise UnsplittableBinError(
                    "halving either margin would create a child below the "
                    "size floor"
                )
            margin = other
        if margin == "s":
            return split_at(b, "s", _halve_coord(b.lower_s, b.upper_s))
        return split_at(b, "t", _halve_coord(b.lower_t, b.upper_t))

    # Ties across margins go to s; a margin without eligible candidates
    # cannot win (its -1 index would be meaningless).
    if t_idx < 0 or (s_idx >= 0 and s_best >= t_best):
        return split_at(b, "s", int(w_s[1 + s_idx]))
    return split_at(b, "t", int(w_t[1 + t_idx]))
