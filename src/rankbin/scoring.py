"""Per-candidate split scores along the margins of many bins at once.

Candidate split coordinates for a margin are the sorted member coordinates
plus a pseudo-point one rank unit below the smallest member, which is what
lets a split carve off an empty child.  Scores are the post-split two-child
sums (the parent's own score is constant across candidates, so the argmax
is unchanged by dropping it).  A candidate producing a child with expected
count below ``z`` on either side is gated; zero-width children (possible
at both ends of a margin's candidates) are gated unconditionally.

``candidate_scores`` is the one scorer.  It works elementwise, so
``splitting.best_splits`` calls it on the candidates of every bin of a
level at once, writing the scores straight into its per-level buffer and
its temporaries into the batch's scratch workspace, except on the full
margins whose scores it knows to be zero.
"""

from __future__ import annotations

import numpy as np


def lower_expected(coord, lower, upper, e):
    """Expected count of the lower child of a cut at ``coord`` in (lower, upper].

    Shared by the engine's children and the halving test, and evaluated the
    same way by the size gate, so a gate-passed split never stores a child
    expected a rounding error below the floor.
    """
    return (coord - lower) * (e / (upper - lower))


def candidate_scores(coord, olo, o, lower, dens, e, z: float, kind: str, draws, out, work):
    """Gated scores of candidate cuts, elementwise, written into ``out``.

    A cut at ``coord`` on a margin with lower bound ``lower``, ``dens`` =
    e / (upper - lower) expected points per rank unit and ``e`` expected in
    all, with ``olo`` of the margin's ``o`` members at or below it; all but
    ``coord`` are floats (mixed integer and float arithmetic is several
    times slower, and gives the same values).  ``kind`` is "chi", "mi" or
    "random", which scores each cut with its entry of ``draws`` (the caller
    checks it).  Arguments broadcast: one margin's candidates score against
    scalars, and a whole level's against per-candidate arrays.  ``work``
    holds four float and two boolean arrays shaped like ``out``: the float
    copy of ``coord`` and the temporaries.  A gated cut scores -inf, and a
    cut on the upper bound is not gated here (there e - e_lo can round to
    2e-16 instead of 0): callers test the last candidate of each margin by
    coordinate.  Mutual-information terms follow 0*log(0/x) = 0, and their
    sums may be negative: a bin holding fewer points than it expects has
    log-ratios below zero on both sides.  Gated cuts can divide by zero,
    so a caller that minds the warnings enters ``np.errstate(divide=
    "ignore", invalid="ignore")``, once for a whole pass.
    """
    f, e_lo, e_hi, tmp, ok, off = work
    f[...] = coord
    # lower_expected, with e / (upper - lower) evaluated once per margin
    np.subtract(f, lower, out=e_lo)
    e_lo *= dens
    np.subtract(e, e_lo, out=e_hi)
    # With z > 0 the floor keeps both children wider than zero; with z == 0
    # the positivity tests exclude zero-width children, so no kept score
    # divides by zero.
    low = np.minimum(e_lo, e_hi, out=tmp)
    if z > 0:
        np.greater_equal(low, z, out=ok)
    else:
        np.greater(low, 0, out=ok)
    if kind == "random":
        np.copyto(out, draws)
    elif kind == "chi":
        # (olo - e_lo)**2 / e_lo + (ohi - e_hi)**2 / e_hi
        ohi = np.subtract(o, olo, out=tmp)
        lo = np.subtract(olo, e_lo, out=out)
        lo *= lo
        lo /= e_lo
        ohi -= e_hi
        ohi *= ohi
        ohi /= e_hi
        lo += ohi
    else:
        # (olo / o) * log(olo / e_lo), 0 where olo is 0, and the same above
        ohi = np.subtract(o, olo, out=tmp)
        for n_side, e_side in ((olo, e_lo), (ohi, e_hi)):
            term = np.divide(n_side, e_side, out=e_side)
            np.log(term, out=term)
            term *= np.divide(n_side, o, out=out)
            np.copyto(term, 0.0, where=np.less_equal(n_side, 0, out=off))
        np.add(e_lo, e_hi, out=out)
    np.copyto(out, -np.inf, where=np.logical_not(ok, out=off))
