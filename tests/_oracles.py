"""Independent oracles shared across tests.

Everything here recomputes quantities from scratch (per-candidate counting,
direct two-child evaluation) so that library results are checked against a
second, structurally different implementation.
"""

from __future__ import annotations

import numpy as np

from rankbin.bins import Binning, StopConfig, root_bin, should_stop
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
