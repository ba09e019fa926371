"""Choosing the best binary split of many bins at once.

``best_splits`` builds the candidate coordinates of both margins of every
bin it is given, scores them with the requested rule, and picks each bin's
split.  Candidates failing the size gate are not selectable: the gate
marks them forbidden, and scoring them zero instead would let them outrank
genuinely negative scores (possible under mi scoring) or mask a flat score
function.

When the score function is flat across the eligible candidates of both
margins -- the degenerate case, e.g. the uniform root bin, or a bin whose
points sit exactly on the diagonal so every split looks alike -- the bin is
instead halved at the ceiling of its midpoint, on the margin with the
larger common score, or on a random margin when those tie.  A halving that
would undercut the size floor z (possible on an odd side when expected
barely exceeds 2z, since the ceiling makes the halves unequal) falls back
to the other margin, and if both margins would undercut it the bin is
reported unsplittable so the caller can freeze it.

Under chi and mi, only what is not known in advance is scored.  A margin of
a bin is full when the bin holds one member per rank of it and expects
exactly its width: a root on both margins, and a root's child on the
margin its root was cut on, since the child spans the whole other margin.
Every eligible candidate of a full margin scores exactly zero, so its
summary comes in closed form (``_full_summary``), and only the members of
the other margins are scored.

The members are scored in ``BLOCK`` chunks (``chunks``), planned once per
scoring pass, whose temporaries go to a ``Workspace``: the caller's, one per
batch of trees.  Scoring is the one pass that runs in chunks: it builds
several float temporaries per candidate, while every other pass over the
members is one mask or one gather.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .scoring import candidate_scores, lower_expected

# Points per chunk: the scoring pass runs over the members in chunks of
# this many points (twice as many candidates over both margins), so its
# temporaries, 64 KB of floats each, stay in cache however many points a
# batch of trees holds.
BLOCK = 1 << 13


class Workspace:
    """Scratch arrays of ``BLOCK`` entries for the scoring passes of a batch.

    Each pass writes its temporaries here instead of allocating them chunk
    after chunk: freed, they would go back to the system and fault in again
    on the next chunk.  ``engine.grow_levels`` makes one per call, so no two
    threads share one.
    """

    def __init__(self):
        self.ramp = np.arange(1.0, BLOCK + 1.0)
        self.olo, self.o, self.e = (np.empty(BLOCK) for _ in range(3))
        # ``candidate_scores``' work arrays
        self.work = ([np.empty(BLOCK) for _ in range(4)]
                     + [np.empty(BLOCK, dtype=bool) for _ in range(2)])


def chunks(cnt: np.ndarray) -> list:
    """The ``BLOCK`` chunks of entries held node after node, ``cnt[j]`` for node j.

    Gives each chunk's slice of entries and a function spreading per-node
    values over it: every node the chunk overlaps repeats its value once per
    entry it has in the chunk, and a chunk within one node takes that node's
    value as a scalar.
    """
    end = np.cumsum(cnt)
    size = int(cnt.sum())
    starts = np.arange(0, size, BLOCK)
    stops = np.minimum(starts + BLOCK, size)
    # the nodes holding each chunk's first and last entries
    j0s = np.searchsorted(end, starts, side="right").tolist()
    j1s = (np.searchsorted(end, stops - 1, side="right") + 1).tolist()
    out = []
    for c0, c1, j0, j1 in zip(starts.tolist(), stops.tolist(), j0s, j1s):
        if j1 - j0 == 1:
            out.append((slice(c0, c1), lambda x, j=j0: x[j]))
        else:
            reps = np.minimum(end[j0:j1], c1) - np.maximum(end[j0:j1] - cnt[j0:j1], c0)
            out.append((slice(c0, c1), lambda x, j=slice(j0, j1), r=reps: x[j].repeat(r)))
    return out


def _summary(masked, p_masked, pseudo, coords, cnt):
    """One margin of every bin: (flat, best score, best candidate, its cut).

    Bin j's candidates on the margin are its pseudo-point (candidate 0,
    score ``p_masked[j]``) and its sorted members ``coords`` (candidates
    1..cnt[j], the next scores of ``masked``, bin after bin), a gated
    candidate scoring -inf.  Flat means the margin offers no informative
    choice: either nothing is eligible (score 0, candidate -1) or at least
    two eligible candidates all carry one identical score.  A margin with a
    single eligible candidate is not flat -- that candidate is simply its
    best.  The best is the first, that is lowest, eligible candidate with
    the largest score.
    """
    first = np.cumsum(cnt) - cnt
    best = np.maximum(p_masked, np.maximum.reduceat(masked, first))
    # Members scoring the best, with a sentinel so every margin finds one.
    hits = np.append(np.flatnonzero(masked == best.repeat(cnt)), masked.size)
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


def _scored(margins, cnt, e, kind, z, ws):
    """The ``_summary`` of each of ``margins`` of every bin, by scoring every
    candidate.

    Bin j has ``cnt[j]`` >= 1 members and expects ``e[j]``; each margin is
    (sorted member coordinates bin after bin, lower bounds, upper bounds,
    (pseudo-point draws, member draws) or (None, None)).  The members are
    scored in their ``chunks``, the temporaries going to the ``Workspace``
    ``ws``.  The margins share each member's prefix count and its bin's
    totals.
    """
    k = cnt.size
    first = np.cumsum(cnt) - cnt
    # float copies of the per-bin tables the scorer reads per candidate
    first_f, cnt_f = first.astype(float), cnt.astype(float)
    tabs = [(coords, lower.astype(float), upper, e / (upper - lower), draws)
            for coords, lower, upper, draws in margins]
    masked = [np.empty(cnt.sum()) for _ in tabs]
    last = first + cnt - 1
    summaries = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # Candidate 0 of a margin is its pseudo-point, one below every
        # member; candidate i >= 1 is its i-th member, with i members at or
        # below it.
        for c, spread in chunks(cnt):
            n = c.stop - c.start
            olo, o, e_c = ws.olo[:n], ws.o[:n], ws.e[:n]
            np.subtract(ws.ramp[:n], spread(first_f), out=olo)
            olo += c.start
            # both margins read these; a spread is freed once copied here
            o[...] = spread(cnt_f)
            e_c[...] = spread(e)
            work = [a[:n] for a in ws.work]
            for m, (coords, lower, _, dens, (_, m_draws)) in zip(masked, tabs):
                candidate_scores(coords[c], olo, o, spread(lower), spread(dens), e_c, z, kind,
                                 None if m_draws is None else m_draws[c], m[c], work)
        for m, (coords, lower, upper, dens, (p_draws, _)) in zip(masked, tabs):
            pseudo = coords[first] - 1
            p_masked = np.empty(k)
            for b in range(0, k, BLOCK):
                j = slice(b, min(b + BLOCK, k))
                candidate_scores(pseudo[j], 0.0, cnt_f[j], lower[j], dens[j], e[j], z, kind,
                                 None if p_draws is None else p_draws[j], p_masked[j],
                                 [a[:j.stop - b] for a in ws.work])
            # only a margin's last member can sit on its upper bound
            m[last[coords[last] >= upper]] = -np.inf
            summaries.append(_summary(m, p_masked, pseudo, coords, cnt))
    return summaries


def _full_summary(lower, upper, z):
    """The ``_summary`` of full margins, in closed form.

    A full margin holds one member per rank, ``lower + i`` for i = 1..w with
    w = ``upper - lower``, and expects exactly w, so its density is exactly
    1: member i expects i below and w - i above, holds i below, and scores
    +0.0 under chi and mi.  Its pseudo-point expects 0 below and member w
    sits on the upper bound, so both are gated, and the floor passes the
    members i in [max(1, ceil z), min(w - 1, w - ceil z)].  All in floats,
    which are exact here and hold any finite z.
    """
    w = (upper - lower).astype(float)
    cz = np.ceil(z)
    low = max(1.0, cz)
    m = np.minimum(w - 1.0, w - cz) - low + 1.0
    idx = np.where(m > 0, low, -1.0).astype(np.intp)
    # with nothing eligible the cut is the pseudo-point's, as ``_summary`` gives it
    return m != 1, np.zeros(w.size), idx, lower + np.maximum(idx, 0)


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
    kind: str, z: float, draws: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ws: Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each bin's best split: (splittable, cut is on t, cut coordinate).

    Bin j has integer bounds ``(lo_s, hi_s] x (lo_t, hi_t]``, expected count
    ``e[j]`` and ``cnt[j]`` >= 1 members, whose sorted s and t coordinates
    are the next ``cnt[j]`` entries of ``ss`` and ``tt``.  Each scoring pass
    runs over them in ``chunks`` planned once for it and writes its
    temporaries to ``ws``.
    ``draws(js, counts)`` gives the first ``counts[i]`` draws of bin
    ``js[i]``'s substream, bin after bin, and is called at most once: under
    random scoring for ``2 * cnt + 3`` draws of every bin, under chi or mi
    for one draw of each degenerate bin whose two margins tie.  Which draw
    is read for what is the substream contract in ``substreams``.  An
    unknown ``kind`` is refused before anything is drawn.
    """
    if kind not in ("chi", "mi", "random"):
        raise ValueError(f"unknown score kind {kind!r}")
    k = cnt.size
    margins = ((ss, lo_s, hi_s), (tt, lo_t, hi_t))
    scores = [(None, None)] * 2
    # Full margins (``_full_summary``); none under random scoring, whose
    # scores are draws.
    full = [np.zeros(k, dtype=bool)] * 2
    if kind == "random":
        count = 2 * cnt + 3
        d = draws(np.arange(k), count)
        at = np.cumsum(count) - count  # each bin's draw 0
        # member i of bin j scores draw i + 1 on s, draw cnt[j] + 1 later on t
        member = np.arange(cnt.sum()) + np.repeat(at + 1 - (np.cumsum(cnt) - cnt), cnt)
        scores = [(d[at], d[member]), (d[at + cnt + 1], d[member + np.repeat(cnt + 1, cnt)])]
        coin = d[at + 2 * cnt + 2] >= 0.5
    else:
        full = [(cnt == hi - lo) & (e == hi - lo) for _, lo, hi in margins]
    summaries = [None, None]
    # Margins with the same bins to score are scored in one pass.
    for hs in [(0, 1)] if np.array_equal(*full) else [(0,), (1,)]:
        todo = ~full[hs[0]]
        if todo.all():
            for h, got in zip(hs, _scored([(*margins[h], scores[h]) for h in hs], cnt, e, kind,
                                          z, ws)):
                summaries[h] = got
            continue
        for h in hs:
            summaries[h] = _full_summary(*margins[h][1:], z)
        if todo.any():
            on = np.repeat(todo, cnt)
            scored = _scored([(margins[h][0][on], margins[h][1][todo], margins[h][2][todo],
                               scores[h]) for h in hs], cnt[todo], e[todo], kind, z, ws)
            for h, got in zip(hs, scored):
                for a, b in zip(summaries[h], got):
                    a[todo] = b
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
        ties = np.flatnonzero(degenerate & (s_best == t_best))
        if kind == "random":
            pick_t[ties] = coin[ties]
        elif ties.size:
            pick_t[ties] = draws(ties, np.ones(ties.size, dtype=np.intp)) >= 0.5
        half_s, ok_s = _halving(lo_s, hi_s, e, z)
        half_t, ok_t = _halving(lo_t, hi_t, e, z)
        # a halving below the floor falls back to the other margin
        half_on_t = np.where(ok_s & ok_t, pick_t, ok_t)
        on_t = np.where(degenerate, half_on_t, on_t)
        cut = np.where(degenerate, np.where(half_on_t, half_t, half_s), cut)
        splittable = ~degenerate | ok_s | ok_t
    return splittable, on_t, cut
