"""Independent oracles shared across tests.

Everything here recomputes quantities from scratch (per-candidate counting,
direct two-child evaluation) so that library results are checked against a
second, structurally different implementation.
"""

from __future__ import annotations

import numpy as np

from rankbin.bins import Bin, Binning, StopConfig, root_bin, should_stop
from rankbin.splitting import UnsplittableBinError, max_score_split


def chi_cell(o: float, e: float) -> float:
    return (o - e) ** 2 / e


def two_child_sum(kind: str, o1: int, e1: float, o2: int, e2: float, z: float) -> float:
    """Direct two-child score with the size gate; no recurrence."""
    if e1 < z or e2 < z or e1 <= 0 or e2 <= 0:
        return 0.0
    if kind == "chi":
        return chi_cell(o1, e1) + chi_cell(o2, e2)
    o = o1 + o2
    t1 = (o1 / o) * np.log(o1 / e1) if o1 > 0 else 0.0
    t2 = (o2 / o) * np.log(o2 / e2) if o2 > 0 else 0.0
    return t1 + t2


def brute_force_scores(kind, w, e, z):
    """Score every interior candidate of w by direct counting.

    The member coordinates are w[2:-1]; each candidate splits at w[i] with
    the members at the split line counted below.
    """
    w = np.asarray(w, dtype=float)
    members = w[2:-1]
    density = e / (w[-1] - w[0])
    out = []
    for c in w[1:-1]:
        if c >= w[-1]:
            # a cut on the upper bound leaves a zero-width upper child,
            # gated whatever e - e1 rounds to
            out.append(0.0)
            continue
        e1 = (c - w[0]) * density
        o1 = int(np.count_nonzero(members <= c))
        o2 = members.size - o1
        out.append(two_child_sum(kind, o1, e1, o2, e - e1, z))
    return np.array(out)


def evaluation_sites(lower, upper, coords, e, z):
    """Cuts at which the gated two-child score can peak along one margin.

    For a margin ``(lower, upper]`` with sorted member ``coords``, expected
    count ``e`` and gate ``z > 0``.  Between neighbouring candidates the
    lower count is fixed and the score is convex in the cut, so over any
    stretch of gate-passing cuts with one lower count it peaks at an end of
    the stretch.  Such an end is one of:

    * a candidate counted as the library counts it, with the point on the
      cut in the lower child;
    * a candidate counted from the other side: the left limit of the score
      at that coordinate;
    * a gate boundary, where ``e1 == z`` or ``e2 == z``.

    Returns a list of rows ``(c, e1, e2, o1, k)``: the cut coordinate, both
    child expectations, the lower count, and the candidate index ``k`` when
    the row is the library's own evaluation of candidate ``k`` (else -1).
    """
    dens = e / (upper - lower)
    rows = []
    cands = np.concatenate(([coords[0] - 1], coords)).astype(float)
    for k, c in enumerate(cands):
        e1 = (c - lower) * dens
        rows.append((c, e1, e - e1, int(np.count_nonzero(coords <= c)), k))
        rows.append((c, e1, e - e1, int(np.count_nonzero(coords < c)), -1))
    for e1, e2 in ((z, e - z), (e - z, z)):
        c = lower + e1 / dens
        for o1 in (int(np.count_nonzero(coords <= c)),
                   int(np.count_nonzero(coords < c))):
            rows.append((c, e1, e2, o1, -1))
    return rows


def random_bin_setup(rng, min_pts=5, max_pts=200):
    """Random margin geometry: (lower, upper, sorted coords, expected)."""
    lower = int(rng.integers(0, 1000))
    side = int(rng.integers(10, 3000))
    upper = lower + side
    o = min(int(rng.integers(min_pts, max_pts + 1)), side)
    coords = np.sort(rng.choice(np.arange(lower + 1, upper + 1), size=o, replace=False))
    e = float(rng.uniform(10.0, max(20.0, 3.0 * o)))
    return lower, upper, coords, e


def replay_partitions(pair, kind, depths, stop, z, seed):
    """Partitions per depth limit from a grown tree and a per-limit replay.

    A second bookkeeping for ``bin_pair_by_depth``: grow once under the
    deepest limit, recording each node's children by tree id, then re-run
    the freeze/split rounds for each limit over that tree.  Splitting still
    goes through the library's ``max_score_split``; this checks the
    bookkeeping, not the splitter.  Node ``k``'s split draws from the
    substream ``(seed, k)``.  Returns ``{depth: Binning}``.
    """
    def grow(cfg):
        root = (root_bin(pair), 1)
        children = {}
        active = [] if should_stop(root[0], cfg) else [root]
        while active:
            nxt = []
            for b, nid in active:
                rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, nid)))
                try:
                    lo, hi = max_score_split(b, kind, z, rng)
                except UnsplittableBinError:
                    continue
                pair_nodes = ((lo, 2 * nid), (hi, 2 * nid + 1))
                children[nid] = pair_nodes
                for child in pair_nodes:
                    if not should_stop(child[0], cfg):
                        nxt.append(child)
            active = nxt
        return root, children

    def replay(root, children, cfg):
        def frozen_at(nd):
            return should_stop(nd[0], cfg) or nd[1] not in children

        nodes = [root]
        stopped = [frozen_at(root)]
        while not all(stopped):
            done = [nd for nd, st in zip(nodes, stopped) if st]
            fresh = []
            for nd, st in zip(nodes, stopped):
                if not st:
                    lo, hi = children[nd[1]]
                    fresh.append(lo)
                    fresh.append(hi)
            nodes = done + fresh
            stopped = [True] * len(done) + [frozen_at(nd) for nd in fresh]
        return [nd[0] for nd in nodes]

    cfgs = [StopConfig(d, stop.min_expected) for d in sorted(set(depths))]
    root, children = grow(cfgs[-1])
    return {
        cfg.max_depth: Binning(bins=replay(root, children, cfg), score_kind=kind,
                               stop=cfg, min_split_expected=z, seed=seed, n=pair.n)
        for cfg in cfgs
    }


# ---------------------------------------------------------------------------
# The per-bin engine: one Bin and one scorer call per margin per bin, grown
# breadth first.  This is the growth path the level-synchronous engine
# replaced, kept verbatim as its byte-for-byte reference.


def _lower_expected(coord, lower, upper, e):
    return (coord - lower) * (e / (upper - lower))


def per_bin_score(w, e, z, kind, rng=None):
    """Gated scores and size-gate indicator per candidate of one margin."""
    inner = w[1:-1]
    e_lo = _lower_expected(inner, w[0], w[-1], e)
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


def per_bin_split_at(b, margin, coord):
    """Children of ``b`` cut at ``coord``; points keep their order."""
    lower = b.lower_s if margin == "s" else b.lower_t
    upper = b.upper_s if margin == "s" else b.upper_t
    assert lower < coord < upper
    coords = b.points_s if margin == "s" else b.points_t
    below = coords <= coord
    e_lo = _lower_expected(coord, lower, upper, b.expected)
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


def _halve_coord(lower, upper):
    return (lower + upper + 1) // 2


def _halving_ok(b, margin, z):
    if margin == "s":
        lower, upper, side = b.lower_s, b.upper_s, b.side_s
    else:
        lower, upper, side = b.lower_t, b.upper_t, b.side_t
    if side < 2:
        return False
    if z <= 0:
        return True
    e_lo = _lower_expected(_halve_coord(lower, upper), lower, upper, b.expected)
    return e_lo >= z and b.expected - e_lo >= z


def _margin_summary(scores, ok):
    if not ok.any():
        return True, 0.0, -1
    idx = np.flatnonzero(ok)
    vals = scores[idx]
    k = int(np.argmax(vals))
    flat = bool(idx.size > 1 and np.all(vals == vals[0]))
    return flat, float(vals[k]), int(idx[k])


def per_bin_max_score_split(b, kind, z, rng):
    """Score both margins of one bin and split it; None if unsplittable."""
    margins = []
    for lower, coords, upper in ((b.lower_s, b.points_s, b.upper_s),
                                 (b.lower_t, b.points_t, b.upper_t)):
        coords = np.sort(coords)
        w = np.concatenate(([lower, coords[0] - 1], coords, [upper])).astype(float)
        margins.append((w, *_margin_summary(*per_bin_score(w, b.expected, z, kind, rng))))
    (w_s, s_flat, s_best, s_idx), (w_t, t_flat, t_best, t_idx) = margins
    if s_flat and t_flat:
        if s_best > t_best:
            margin = "s"
        elif s_best < t_best:
            margin = "t"
        else:
            margin = "s" if rng.random() < 0.5 else "t"
        other = "t" if margin == "s" else "s"
        if not _halving_ok(b, margin, z):
            if not _halving_ok(b, other, z):
                return None
            margin = other
        if margin == "s":
            return per_bin_split_at(b, "s", _halve_coord(b.lower_s, b.upper_s))
        return per_bin_split_at(b, "t", _halve_coord(b.lower_t, b.upper_t))
    if t_idx < 0 or (s_idx >= 0 and s_best >= t_best):
        return per_bin_split_at(b, "s", int(w_s[1 + s_idx]))
    return per_bin_split_at(b, "t", int(w_t[1 + t_idx]))


def per_bin_partitions(pair, kind, depths, stop, z, seed):
    """``bin_pair_by_depth`` by the per-bin engine: ``{depth: Binning}``.

    Grows the tree breadth first under the deepest limit, one bin at a
    time, node ``k`` drawing from the substream ``(seed, k)``, and reads
    limit ``d``'s partition off it: every node at depth ``d`` and every
    leaf above it, in breadth-first order.
    """
    depths = sorted(set(depths))
    cfg = StopConfig(depths[-1], stop.min_expected)
    nodes = []
    level = [(root_bin(pair), 1)]
    while level:
        nxt = []
        for b, nid in level:
            if should_stop(b, cfg):
                nodes.append((b, True))
                continue
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, nid)))
            kids = per_bin_max_score_split(b, kind, z, rng)
            nodes.append((b, kids is None))
            if kids is not None:
                nxt += [(kids[0], 2 * nid), (kids[1], 2 * nid + 1)]
        level = nxt
    return {
        d: Binning(
            bins=[b for b, leaf in nodes if b.depth == d or (leaf and b.depth < d)],
            score_kind=kind, stop=StopConfig(d, stop.min_expected),
            min_split_expected=z, seed=seed, n=pair.n)
        for d in depths
    }
