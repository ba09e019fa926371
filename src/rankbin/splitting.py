"""Choosing the best binary split of many bins at once, and executing one.

``best_splits`` builds the candidate coordinates of both margins of every
bin it is given, scores them with the requested rule, and picks each bin's
split.  Candidates zeroed by the size gate are not selectable: the gate
marks them forbidden, and treating their zeros as real scores would let them
outrank genuinely negative scores (possible under mi scoring) or mask a
flat score function.

When the score function is flat across the eligible candidates of both
margins -- the degenerate case, e.g. the uniform root bin, or a bin whose
points sit exactly on the diagonal so every split looks alike -- the bin is
instead halved at the ceiling of its midpoint, on the margin with the
larger common score, or on a random margin when those tie.  A halving that
would undercut the size floor z (possible on an odd side when expected
barely exceeds 2z, since the ceiling makes the halves unequal) falls back
to the other margin, and if both margins would undercut it the bin is
reported unsplittable so the caller can freeze it.

``max_score_split`` is a one-bin call of ``best_splits`` followed by
``split_at``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bins import Bin
from .scoring import candidate_scores, lower_expected

# Points per chunk: every per-level pass runs over its arrays in chunks of
# this many points (twice as many candidates over both margins), so the
# temporaries, 64 KB of floats each, stay in cache.
BLOCK = 1 << 13


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


def chunk_nodes(seg: np.ndarray):
    """A chunk's node index per entry, or the one node all its entries share."""
    return seg[0] if seg[0] == seg[-1] else seg


def _summary(masked, p_masked, pseudo, coords, cnt, seg):
    """One margin of every bin: (flat, best score, best candidate, its cut).

    Bin j's candidates on the margin are its pseudo-point (candidate 0,
    score ``p_masked[j]``) and its sorted members ``coords`` (candidates
    1..cnt[j], the next scores of ``masked``, bin after bin), a gated
    candidate scoring -inf; ``seg`` gives each member's bin.  Flat means
    the margin offers no informative choice: either nothing is eligible
    (score 0, candidate -1) or at least two eligible candidates all carry
    one identical score.  A margin with a single eligible candidate is not
    flat -- that candidate is simply its best.  The best is the first, that
    is lowest, eligible candidate with the largest score.
    """
    first = np.cumsum(cnt) - cnt
    best = np.maximum(p_masked, np.maximum.reduceat(masked, first))
    # Members scoring the best, with a sentinel so every margin finds one.
    hits = np.concatenate([
        np.flatnonzero(masked[c0:c0 + BLOCK] == best[chunk_nodes(seg[c0:c0 + BLOCK])]) + c0
        for c0 in range(0, masked.size, BLOCK)
    ] + [[masked.size]])
    at = np.searchsorted(hits, first)
    p_best = p_masked == best
    n_best = np.searchsorted(hits, first + cnt) - at + p_best
    some = best > -np.inf
    flat = ~some
    tied = some & (n_best > 1)
    if tied.any():
        n_ok = np.add.reduceat(masked > -np.inf, first, dtype=np.intp) + (p_masked > -np.inf)
        flat |= tied & (n_best == n_ok)
    member = np.minimum(hits[at], masked.size - 1)
    idx = np.where(some, np.where(p_best, 0, member - first + 1), -1)
    return flat, np.where(some, best, 0.0), idx, np.where(p_best, pseudo, coords[member])


def _halving(lower, upper, e, z):
    """Ceiling-midpoint cut per bin, and whether it respects the floor z.

    Evaluates the exact child expectations a halving split would store.
    """
    cut = (lower + upper + 1) // 2
    e_lo = lower_expected(cut, lower, upper, e)
    ok = (upper - lower >= 2) & ((z <= 0) | ((e_lo >= z) & (e - e_lo >= z)))
    return cut, ok


def best_splits(
    lo_s: np.ndarray, hi_s: np.ndarray, lo_t: np.ndarray, hi_t: np.ndarray,
    e: np.ndarray, cnt: np.ndarray, ss: np.ndarray, tt: np.ndarray,
    kind: str, z: float, rng_of: Callable[[int], np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each bin's best split: (splittable, cut is on t, cut coordinate).

    Bin j has integer bounds ``(lo_s, hi_s] x (lo_t, hi_t]``, expected count
    ``e[j]`` and ``cnt[j]`` >= 1 members, whose sorted s and t coordinates
    are the next ``cnt[j]`` entries of ``ss`` and ``tt``.  ``rng_of(j)``
    gives bin j's random stream and is called only for a bin that draws:
    every bin under random scoring (s-margin draws, t-margin draws, then
    the degenerate-tie margin pick if needed), and under chi or mi only a
    degenerate bin whose two margins tie.
    """
    made: dict[int, np.random.Generator] = {}

    def rng(j):
        if j not in made:
            made[j] = rng_of(j)
        return made[j]

    k = cnt.size
    first = np.cumsum(cnt) - cnt
    seg = np.repeat(np.arange(k), cnt)
    # float copies of the per-bin tables the scorer reads per candidate
    first_f, cnt_f = first.astype(float), cnt.astype(float)
    margins = ((ss, lo_s.astype(float), hi_s, e / (hi_s - lo_s)),
               (tt, lo_t.astype(float), hi_t, e / (hi_t - lo_t)))
    draws = [(None, None)] * 2
    if kind == "random":
        # s-margin draws, then t-margin draws, from each bin's own stream;
        # a margin's first draw scores its pseudo-point
        d = [(rng(j).random(m + 1), rng(j).random(m + 1)) for j, m in enumerate(cnt.tolist())]
        draws = [(np.array([x[h][0] for x in d]), np.concatenate([x[h][1:] for x in d]))
                 for h in (0, 1)]
    # Candidate 0 of a margin is its pseudo-point, one below every member;
    # candidate i >= 1 is its i-th member, with i members at or below it.
    masked = [np.empty(ss.size), np.empty(ss.size)]
    for c0 in range(0, ss.size, BLOCK):
        j = chunk_nodes(seg[c0:c0 + BLOCK])
        c = slice(c0, c0 + BLOCK)
        olo = np.arange(c0 + 1.0, c0 + 1 + min(BLOCK, ss.size - c0)) - first_f[j]
        o, e_c = cnt_f[j], e[j]
        for m, (coords, lower, _, dens), (_, m_draws) in zip(masked, margins, draws):
            scores, ok = candidate_scores(coords[c].astype(float), olo, o, lower[j], dens[j],
                                          e_c, z, kind,
                                          None if m_draws is None else m_draws[c])
            m[c] = np.where(ok, scores, -np.inf)
    last = first + cnt - 1
    summaries = []
    for m, (coords, lower, upper, dens), (p_draws, _) in zip(masked, margins, draws):
        pseudo = coords[first] - 1
        scores, ok = candidate_scores(pseudo.astype(float), 0.0, cnt_f, lower, dens, e, z,
                                      kind, p_draws)
        # only a margin's last member can sit on its upper bound
        m[last] = np.where(coords[last] < upper, m[last], -np.inf)
        summaries.append(_summary(m, np.where(ok, scores, -np.inf), pseudo, coords, cnt, seg))
    (s_flat, s_best, s_idx, s_cut), (t_flat, t_best, t_idx, t_cut) = summaries

    # Ties across margins go to s; a margin without eligible candidates
    # cannot win.
    on_t = (t_idx >= 0) & ((s_idx < 0) | (s_best < t_best))
    cut = np.where(on_t, t_cut, s_cut)
    splittable = np.ones(k, dtype=bool)

    degenerate = s_flat & t_flat
    if degenerate.any():
        # No candidate is better than any other, so halve a margin at its
        # midpoint: the larger common score's, else a coin from the stream.
        pick_t = s_best < t_best
        for j in np.flatnonzero(degenerate & (s_best == t_best)).tolist():
            pick_t[j] = rng(j).random() >= 0.5
        half_s, ok_s = _halving(lo_s, hi_s, e, z)
        half_t, ok_t = _halving(lo_t, hi_t, e, z)
        # a halving below the floor falls back to the other margin
        half_on_t = np.where(ok_s & ok_t, pick_t, ok_t)
        on_t = np.where(degenerate, half_on_t, on_t)
        cut = np.where(degenerate, np.where(half_on_t, half_t, half_s), cut)
        splittable = ~degenerate | ok_s | ok_t
    return splittable, on_t, cut


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
    ok, on_t, cut = best_splits(
        np.array([b.lower_s]), np.array([b.upper_s]), np.array([b.lower_t]),
        np.array([b.upper_t]), np.array([b.expected]), np.array([b.observed]),
        np.sort(b.points_s), np.sort(b.points_t), kind, z, lambda j: rng)
    if not ok[0]:
        raise UnsplittableBinError(
            "halving either margin would create a child below the size floor"
        )
    return split_at(b, "t" if on_t[0] else "s", int(cut[0]))
