"""Level-synchronous growth of rank-space split trees, read off per depth limit.

The trees are grown under the deepest requested limit, one level at a time.
Each pass takes every node at one depth of every tree in the batch (one
tree for ``bin_pair``, a batch of null replicates for
``stats.simulate_null``), freezes those meeting a stop criterion, and
scores and splits all the others at once with ``splitting.best_splits``.
A node that cannot be split is frozen too.

The members of a level's nodes are kept in three orders, node after node:
by s, by t and by original index.  The first two give every node's sorted
candidate coordinates without a sort.  A split moves each member to its
child by a stable partition, so all three stay in order from the root
down; the s and t orders keep only the members of nodes still to be
scored, the original order those of every node, for the read-off.  Every
per-level pass runs over these arrays in chunks of ``splitting.BLOCK``
entries, so its temporaries stay in cache.  Internally a level lists all
lower children, then all upper children; each node carries its
breadth-first rank, and ``grow_levels`` yields every level in
breadth-first order.

The partition for a limit ``d`` lists, in breadth-first order, every leaf
above depth ``d`` and every node at depth ``d``.  Below ``d`` the stop
criteria of limit ``d`` and of the deepest limit differ only in the depth
test, so a node freezes under ``d`` exactly when it is a leaf of the grown
tree.  ``bin_pair_by_depth`` builds ``Bin`` objects only for the nodes its
partitions return; the null simulation reads its statistics straight off
each level's per-node counts and builds none.

Randomness is splittable: every bin in the binary split tree owns a
substream derived from the run seed and the bin's tree position (root id 1,
a split of node k creating lower child 2k and upper child 2k+1), namely
``default_rng(SeedSequence(entropy=(seed, node_id)))`` from numpy (PCG64).
A bin's draws are therefore independent of what happened elsewhere in the
tree, and the partition grown to one depth limit agrees exactly with a
deeper run truncated at that limit.  Within one bin's substream the order
of consumption is: s-margin score draws, t-margin score draws, then the
degenerate-tie margin pick if needed.  A substream is built only for a bin
that draws from it: every scored bin under random scoring, and under chi
or mi only a degenerate bin whose two margins tie.  In a batch, tree r
draws from the substreams of its own seed.

The first split of the root is always the fully degenerate tie case: the
ranks fill 1..n with no gaps, so each candidate's observed prefix count
matches its expectation exactly and every score is zero.  The root is
therefore halved on a random margin.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .bins import SCORE_KINDS, Bin, Binning, StopConfig
from .ranks import RankedPair
from .scoring import lower_expected
from .splitting import BLOCK, best_splits, chunk_nodes


def _bin_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, node_id)))


class Level(NamedTuple):
    """Every node at one depth of the grown trees, in breadth-first order.

    Per-node arrays are indexed alike; trees follow one another.  Node j's
    members, in original index order, are the ``observed[j]`` entries of
    ``points_s``/``points_t`` from ``start[j]`` on.
    """

    depth: int
    lower_s: np.ndarray
    upper_s: np.ndarray
    lower_t: np.ndarray
    upper_t: np.ndarray
    expected: np.ndarray
    observed: np.ndarray
    leaf: np.ndarray
    root: np.ndarray
    start: np.ndarray
    points_s: np.ndarray
    points_t: np.ndarray


def check_growth_args(depths, kind: str, z: float, seed: int = 0) -> list[int]:
    """Validate growth arguments; return the sorted distinct depth limits."""
    depths = sorted(set(int(d) for d in depths))
    if not depths:
        raise ValueError("need at least one depth limit")
    if depths[0] < 0:
        raise ValueError("depth limits must be >= 0")
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    if z < 0:
        raise ValueError("z must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return depths


def _partition(a, b, seg, on_t, cut, keep=None):
    """Move each node's members to its two children, keeping their order.

    ``a`` and ``b`` hold the s and t coordinates of one point order, node
    after node; ``seg`` gives each entry's node.  A member of node j goes to
    the upper child when its t (if ``on_t[j]``) or s coordinate exceeds
    ``cut[j]``, else to the lower one.  With ``keep`` = (lower, upper) flags
    per node, the members of a child whose flag is off are dropped.
    Returns both coordinate arrays, holding every kept lower child's
    members node by node and then every kept upper child's, and which
    entries went up (with one False entry appended).
    """
    up = np.empty(a.size + 1, dtype=bool)
    up[-1] = False
    parts: list[list[np.ndarray]] = [[], [], [], []]
    for c0 in range(0, a.size, BLOCK):
        c = slice(c0, c0 + BLOCK)
        a_c, b_c, j = a[c], b[c], chunk_nodes(seg[c])
        go = up[c0:c0 + a_c.size] = np.where(on_t[j], b_c, a_c) > cut[j]
        for side, moved in enumerate((~go, go)):
            if keep is not None:
                moved &= keep[side][j]
            idx = np.flatnonzero(moved)
            parts[side].append(a_c[idx])
            parts[side + 2].append(b_c[idx])
    return (np.concatenate(parts[0] + parts[1]), np.concatenate(parts[2] + parts[3]),
            up)


def grow_levels(
    pairs: list[RankedPair], seeds: list[int], kind: str, max_depth: int,
    min_expected: float, z: float,
) -> Iterator[Level]:
    """Grow one split tree per pair, all at once; yield each depth's nodes.

    Tree r splits from the substreams of ``seeds[r]``.  A node is a leaf when
    it is at ``max_depth``, expects at most ``min_expected`` points, is
    empty, or has no admissible split.
    """
    def stopped(e, cnt, depth):
        return (e <= min_expected) | (cnt == 0) | (depth >= max_depth)

    # Node arrays are in working order: a level lists every lower child,
    # then every upper child.  ``bfs`` is each node's breadth-first rank.
    cnt = np.array([p.n for p in pairs], dtype=np.int64)
    lo_s, hi_s, lo_t, hi_t = np.zeros_like(cnt), cnt, np.zeros_like(cnt), cnt
    e = cnt.astype(float)
    root = bfs = np.arange(cnt.size)
    ids = np.ones(cnt.size, dtype=object)
    depth = 0
    stop = stopped(e, cnt, depth)
    # Members in original order, and by s and by t: each tree's ranks are a
    # permutation, so rank r of a tree starting at slot f goes to f + r - 1.
    # 32-bit coordinates halve what every pass moves
    coord = np.int32 if cnt.sum() < 2**31 else np.int64
    i_s = np.concatenate([p.s for p in pairs]).astype(coord)
    i_t = np.concatenate([p.t for p in pairs]).astype(coord)
    slot = np.repeat(np.cumsum(cnt) - cnt, cnt)
    s_s, s_t, t_s, t_t = np.empty((4, i_s.size), dtype=coord)
    s_s[slot + i_s - 1], s_t[slot + i_s - 1] = i_s, i_t
    t_s[slot + i_t - 1], t_t[slot + i_t - 1] = i_s, i_t
    if stop.any():
        # the s and t orders hold only the members of bins still to be scored
        live = np.repeat(~stop, cnt)
        s_s, s_t, t_s, t_t = s_s[live], s_t[live], t_s[live], t_t[live]

    while True:
        act = np.flatnonzero(~stop)
        split = act[:0]
        if act.size:
            ok, on_t, cut = best_splits(
                lo_s[act], hi_s[act], lo_t[act], hi_t[act], e[act], cnt[act],
                s_s, t_t, kind, z,
                lambda j: _bin_rng(seeds[root[act[j]]], ids[act[j]]))
            split, on_t, cut = act[ok], on_t[ok], cut[ok]
        leaf = np.ones(cnt.size, dtype=bool)
        leaf[split] = False
        order = np.empty_like(bfs)
        order[bfs] = np.arange(bfs.size)
        start = np.cumsum(cnt) - cnt
        yield Level(depth, lo_s[order], hi_s[order], lo_t[order], hi_t[order],
                    e[order], cnt[order], leaf[order], root[order], start[order],
                    i_s, i_t)
        if not split.size:
            return

        # Move every member of a split node to its child.
        k = split.size
        node_t = np.zeros(cnt.size, dtype=bool)
        node_t[split] = on_t
        node_cut = np.zeros(cnt.size, dtype=coord)
        node_cut[split] = cut
        # leaves drop out; a leaf with members is rare before the last level
        keep = (~leaf, ~leaf) if (cnt[leaf] > 0).any() else None
        i_s, i_t, up = _partition(i_s, i_t, np.repeat(np.arange(cnt.size), cnt),
                                  node_t, node_cut, keep)
        n_up = np.add.reduceat(up, start, dtype=np.intp)[split]
        kid_cnt = np.concatenate((cnt[split] - n_up, n_up))
        e_lo = lower_expected(cut, np.where(on_t, lo_t[split], lo_s[split]),
                              np.where(on_t, hi_t[split], hi_s[split]), e[split])
        kid_e = np.concatenate((e_lo, e[split] - e_lo))
        kid_stop = stopped(kid_e, kid_cnt, depth + 1)
        if not kid_stop.all():
            keep_lo = np.zeros(cnt.size, dtype=bool)
            keep_up = np.zeros(cnt.size, dtype=bool)
            keep_lo[split] = ~kid_stop[:k]
            keep_up[split] = ~kid_stop[k:]
            keep = (keep_lo[act], keep_up[act])
            plan = (np.repeat(np.arange(act.size), cnt[act]), node_t[act],
                    node_cut[act], None if keep[0].all() and keep[1].all() else keep)
            s_s, s_t = _partition(s_s, s_t, *plan)[:2]
            t_s, t_t = _partition(t_s, t_t, *plan)[:2]

        # The children: every lower child, then every upper child, each in
        # the order of their parents.
        on_s = ~on_t
        lo_s, hi_s, lo_t, hi_t = (
            np.concatenate((lo_s[split], np.where(on_s, cut, lo_s[split]))),
            np.concatenate((np.where(on_s, cut, hi_s[split]), hi_s[split])),
            np.concatenate((lo_t[split], np.where(on_t, cut, lo_t[split]))),
            np.concatenate((np.where(on_t, cut, hi_t[split]), hi_t[split])),
        )
        # a split node ranked r-th among the level's split nodes, breadth
        # first, has its children at ranks 2r and 2r + 1
        ranked = np.zeros(cnt.size, dtype=bool)
        ranked[bfs[split]] = True
        rank = (np.cumsum(ranked) - ranked)[bfs[split]]
        bfs = np.concatenate((2 * rank, 2 * rank + 1))
        ids = np.concatenate((2 * ids[split], 2 * ids[split] + 1))
        root = np.tile(root[split], 2)
        e, cnt, stop = kid_e, kid_cnt, kid_stop
        depth += 1


def bin_pair(
    pair: RankedPair,
    kind: str = "chi",
    stop: StopConfig | None = None,
    z: float = 5.0,
    seed: int = 0,
) -> Binning:
    """Recursively bin a ranked pair and return the frozen partition.

    ``kind`` selects the split score ("chi", "mi", or "random"), ``stop``
    the freeze criteria, ``z`` the minimum expected count either side of an
    accepted split, and ``seed`` pins all randomness.  Identical arguments
    give a bit-identical result.
    """
    if stop is None:
        stop = StopConfig(max_depth=6)
    d = stop.max_depth
    return bin_pair_by_depth(pair, kind, [d], stop, z, seed)[d]


def bin_pair_by_depth(
    pair: RankedPair,
    kind: str,
    depths: list[int],
    stop: StopConfig,
    z: float = 5.0,
    seed: int = 0,
) -> dict[int, Binning]:
    """Bin one pair under several depth limits sharing one grown tree.

    Equivalent to calling ``bin_pair`` once per depth (the split tree is
    identical for every limit because bin substreams depend only on tree
    position), but the splits are computed once at the deepest limit and
    each limit's partition is read off the tree level by level.  Each bin
    lists its members in their original order.
    """
    depths = check_growth_args(depths, kind, z, seed)
    wanted = set(depths)
    parts: dict[int, list[Bin]] = {}
    leaves: list[Bin] = []
    for lv in grow_levels([pair], [seed], kind, depths[-1], stop.min_expected, z):
        keep = lv.leaf | (lv.depth in wanted)
        if not keep.any():
            continue
        points_s = lv.points_s.astype(np.int64)
        points_t = lv.points_t.astype(np.int64)
        rows = zip(lv.lower_s.tolist(), lv.upper_s.tolist(), lv.lower_t.tolist(),
                   lv.upper_t.tolist(), lv.expected.tolist(), lv.start.tolist(),
                   (lv.start + lv.observed).tolist())
        bins = [
            Bin(ls, us, lt, ut, points_s[a:b], points_t[a:b], e, lv.depth)
            if k else None
            for k, (ls, us, lt, ut, e, a, b) in zip(keep.tolist(), rows)
        ]
        if lv.depth in wanted:
            parts[lv.depth] = leaves + bins
        leaves += [b for b, leaf in zip(bins, lv.leaf.tolist()) if leaf]
    return {
        d: Binning(
            bins=parts[d] if d in parts else list(leaves),
            score_kind=kind,
            stop=StopConfig(d, stop.min_expected),
            min_split_expected=z,
            seed=seed,
            n=pair.n,
        )
        for d in depths
    }
