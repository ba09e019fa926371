"""Level-synchronous growth of rank-space split trees, read off per depth limit.

Every tree grows through one runner, ``grow_trees``: null replicates and
scan pairs (``stats.tree_statistics``) as well as binnings
(``tree_binnings``, behind ``bin_pair``, ``bin_pair_by_depth`` and
``scan.pair_binnings``).  It validates the growth arguments, builds the
trees from a source in batches of up to ``BATCH`` points, runs the batches
serially or over one process pool, and hands each batch's levels to a
reader.  The trees of a batch are grown under the deepest requested limit,
one level at a time.  Each pass takes every node at one depth of every tree
in the batch, freezes those meeting a stop criterion, and scores and splits
all the others at once with ``splitting.best_splits``.  A node that cannot
be split is frozen too.

The members of the nodes still to be scored are kept in two orders, node
after node: by s and by t, which give every node's sorted candidate
coordinates without a sort.  A caller that reads the bins' points (``Bin``
building) also gets every node's members in original index order.  Each
order is one two-row array of the members' s and t coordinates.  A split
marks each member of an order that goes to the upper child once, in one
mask over the whole level; that mask moves the members by one stable
gather, so every order stays sorted from the root down, and the s order's
mask also counts each split node's children.  Only the scoring pass runs in
chunks of ``splitting.BLOCK`` members, writing its temporaries to one
scratch ``splitting.Workspace`` per batch.

A node's heap id (root 1; a split of node k creates lower child 2k and
upper child 2k + 1) is the one statement of its tree position.  It fixes
both the node's random substream (below) and its place in a partition,
since within a tree ascending id is breadth-first order.  ``grow_levels``
yields each level in growth order (every lower child, then every upper
child) with the ids, and only ``read_off`` orders nodes: by tree, then id.

The partition for a limit ``d`` lists, in breadth-first order, every leaf
above depth ``d`` and every node at depth ``d``.  Below ``d`` the stop
criteria of limit ``d`` and of the deepest limit differ only in the depth
test, so a node freezes under ``d`` exactly when it is a leaf of the grown
tree.  One routine, ``read_off``, applies this rule for both readers, which
supply only how to read a level's selected nodes and what to make of a
partition: the statistics reader (``stats``) sums each tree's ``(n_bin,
chi2)`` straight off the per-node counts and builds no ``Bin``; the ``Bin``
reader (``_read_bins``) builds a ``Bin`` only for the nodes a partition
lists.

Randomness is splittable: every bin in the binary split tree owns a
substream derived from the run seed and the bin's node id, namely
``default_rng(SeedSequence(entropy=(seed, node_id)))`` from numpy (PCG64).
A bin's draws are therefore independent of what happened elsewhere in the
tree, and the partition grown to one depth limit agrees exactly with a
deeper run truncated at that limit.  Within one bin's substream the order
of consumption is: s-margin score draws, t-margin score draws, then the
degenerate-tie margin pick if needed.  A substream is built only for a bin
that draws from it: every scored bin under random scoring, and under chi
or mi only a degenerate bin whose two margins tie.  In a batch, tree r
draws from the substreams of its own seed.

Under chi and mi a root is full on both margins (``splitting``): its ranks
fill 1..n with no gaps, so every eligible candidate scores exactly zero.
With two or more eligible candidates per margin (n > 2 * ceil(z) for z >= 1)
both margins are flat and tie, so the root is halved on a random margin,
a coin from its substream.  With exactly one (n = 10 at z = 5) it is cut
there, on s, and draws nothing.  With none it draws the coin and is
halved, or frozen if neither halving respects the floor.  Under random
scoring a root scores its candidates with draws like any other bin.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .bins import SCORE_KINDS, Bin, Binning, StopConfig
from .ranks import RankedPair
from .scoring import lower_expected
from .splitting import BLOCK, Workspace, best_splits


# Points per batch of trees grown together.  Every level of a batch pays a
# fixed numpy cost however few points it holds, so a batch spans several of
# the ``BLOCK`` chunks the scoring pass runs in; a larger one costs peak
# memory, which grows with the batch, for little more speed.
BATCH = 4 * BLOCK


def _bin_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, node_id)))


class Level(NamedTuple):
    """Every node at one depth of the grown trees, in growth order.

    Per-node arrays are indexed alike.  ``root`` is each node's tree and
    ``node_id`` its heap id, which fix its substream and its place in every
    partition.  The members of the nodes, in original index order, are
    ``points_s``/``points_t``, node after node, ``observed[j]`` of them for
    node j; both are None when the growth carries no points.
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
    node_id: np.ndarray
    points_s: np.ndarray
    points_t: np.ndarray


def check_growth_args(depths, kind: str, z: float) -> list[int]:
    """Validate growth arguments; return the sorted distinct depth limits."""
    depths = sorted(set(int(d) for d in depths))
    if not depths:
        raise ValueError("need at least one depth limit")
    if depths[0] < 0:
        raise ValueError("depth limits must be >= 0")
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    if not 0 <= z < math.inf:
        raise ValueError("z must be finite and >= 0")
    return depths


def _goes_up(order, cnt, on_t, cut):
    """Which members of one order go to their node's upper child.

    ``order`` holds the s and t coordinates (rows 0 and 1) of the members,
    node after node, ``cnt[j]`` of them for node j.  A member of node j goes
    up when its t (if ``on_t[j]``) or s coordinate exceeds ``cut[j]``.
    """
    return np.where(on_t.repeat(cnt), order[1], order[0]) > cut.repeat(cnt)


def _partition(order, up, cnt, keep_lo, keep_up):
    """Move each node's members to its two children, keeping their order.

    ``up`` marks the members going up (``_goes_up``); the members of node
    j's lower child are kept if ``keep_lo[j]``, those of its upper child if
    ``keep_up[j]``.  Returns ``order`` holding every kept lower child's
    members node by node and then every kept upper child's.
    """
    idx = np.concatenate((np.flatnonzero(~up & keep_lo.repeat(cnt)),
                          np.flatnonzero(up & keep_up.repeat(cnt))))
    # ``take`` gathers the columns of a small-row array far faster than
    # indexing them
    return order.take(idx, axis=1)


def grow_levels(
    pairs: list[RankedPair], seeds: list[int], kind: str, max_depth: int,
    min_expected: float, z: float, points: bool = False,
) -> Iterator[Level]:
    """Grow one split tree per pair, all at once; yield each depth's nodes.

    Tree r splits from the substreams of ``seeds[r]``.  A node is a leaf when
    it is at ``max_depth``, expects at most ``min_expected`` points, is
    empty, or has no admissible split.  Only with ``points`` are the members
    carried in original order, giving each ``Level`` its ``points_s`` and
    ``points_t`` (None otherwise).
    """
    def stopped(e, cnt, depth):
        return (e <= min_expected) | (cnt == 0) | (depth >= max_depth)

    cnt = np.array([p.n for p in pairs], dtype=np.int64)
    lo_s, hi_s, lo_t, hi_t = np.zeros_like(cnt), cnt, np.zeros_like(cnt), cnt
    e = cnt.astype(float)
    root = np.arange(cnt.size)
    # node ids reach 2**(max_depth + 1) - 1; deeper trees need Python ints
    ids = np.ones(cnt.size, dtype=np.int64 if max_depth < 62 else object)
    depth = 0
    stop = stopped(e, cnt, depth)
    # Members by s, by t and in original order, each an order of (s, t)
    # columns: each tree's ranks are a permutation, so rank r of a tree
    # starting at slot f goes to f + r - 1.  32-bit coordinates halve what
    # every pass moves
    coord = np.int32 if cnt.sum() < 2**31 else np.int64
    ws = Workspace()
    by_i = np.array([np.concatenate([p.s for p in pairs]),
                     np.concatenate([p.t for p in pairs])], dtype=coord)
    slot = np.repeat(np.cumsum(cnt) - cnt, cnt)
    by_s, by_t = np.empty_like(by_i), np.empty_like(by_i)
    by_s[:, slot + by_i[0] - 1] = by_i
    by_t[:, slot + by_i[1] - 1] = by_i
    if not points:
        by_i = None
    if stop.any():
        # the s and t orders hold only the members of bins still to be scored
        live = np.repeat(~stop, cnt)
        by_s, by_t = by_s.compress(live, axis=1), by_t.compress(live, axis=1)

    while True:
        act = np.flatnonzero(~stop)
        ok = np.zeros(act.size, dtype=bool)
        if act.size:
            ok, on_t, cut = best_splits(
                lo_s[act], hi_s[act], lo_t[act], hi_t[act], e[act], cnt[act],
                by_s[0], by_t[1], kind, z,
                lambda j: _bin_rng(seeds[root[act[j]]], ids[act[j]]), ws)
            on_t, cut = on_t[ok], cut[ok]
        split = act[ok]
        leaf = np.ones(cnt.size, dtype=bool)
        leaf[split] = False
        yield Level(depth, lo_s, hi_s, lo_t, hi_t, e, cnt, leaf, root, ids,
                    *((None, None) if by_i is None else by_i))
        if not split.size:
            return

        # Move every member of a split node to its child.  The s order holds
        # every split node's members, so its up-mask also counts the children.
        k = split.size
        node_t = np.zeros(cnt.size, dtype=bool)
        node_t[split] = on_t
        node_cut = np.zeros(cnt.size, dtype=coord)
        node_cut[split] = cut
        if points:
            # leaves drop out
            by_i = _partition(by_i, _goes_up(by_i, cnt, node_t, node_cut), cnt, ~leaf, ~leaf)
        act_cnt, act_t, act_cut = cnt[act], node_t[act], node_cut[act]
        up_s = _goes_up(by_s, act_cnt, act_t, act_cut)
        n_up = np.add.reduceat(up_s, np.cumsum(act_cnt) - act_cnt, dtype=np.intp)[ok]
        kid_cnt = np.concatenate((cnt[split] - n_up, n_up))
        e_lo = lower_expected(cut, np.where(on_t, lo_t[split], lo_s[split]),
                              np.where(on_t, hi_t[split], hi_s[split]), e[split])
        kid_e = np.concatenate((e_lo, e[split] - e_lo))
        kid_stop = stopped(kid_e, kid_cnt, depth + 1)
        if not kid_stop.all():
            keep_lo = np.zeros(act.size, dtype=bool)
            keep_up = np.zeros(act.size, dtype=bool)
            keep_lo[ok] = ~kid_stop[:k]
            keep_up[ok] = ~kid_stop[k:]
            by_s = _partition(by_s, up_s, act_cnt, keep_lo, keep_up)
            by_t = _partition(by_t, _goes_up(by_t, act_cnt, act_t, act_cut), act_cnt,
                              keep_lo, keep_up)

        # The children: every lower child, then every upper child, each in
        # the order of their parents.
        on_s = ~on_t
        lo_s, hi_s, lo_t, hi_t = (
            np.concatenate((lo_s[split], np.where(on_s, cut, lo_s[split]))),
            np.concatenate((np.where(on_s, cut, hi_s[split]), hi_s[split])),
            np.concatenate((lo_t[split], np.where(on_t, cut, lo_t[split]))),
            np.concatenate((np.where(on_t, cut, hi_t[split]), hi_t[split])),
        )
        ids = np.concatenate((2 * ids[split], 2 * ids[split] + 1))
        root = np.tile(root[split], 2)
        e, cnt, stop = kid_e, kid_cnt, kid_stop
        depth += 1


def _tree_order(root, node_id, deepest: int) -> np.ndarray:
    """Positions of nodes sorted by tree, then heap id.

    One argsort of the key ``root << (deepest + 1) | node_id``, unique since
    every id of a tree grown to depth ``deepest`` is below ``2**(deepest +
    1)``: in int64 while every key fits, else in Python ints, which also hold
    the object ids of trees grown to ``max_depth`` >= 62.
    """
    fits = (int(root.max()) + 1) << (deepest + 1) <= 2**63
    dtype = np.int64 if fits else object
    return np.argsort((root.astype(dtype) << (deepest + 1)) | node_id.astype(dtype))


def read_off(levels, depths: list[int], take):
    """Read every tree's partition under each of ``depths`` off its levels.

    Partition d of a tree lists its leaves above depth d and its nodes at
    depth d by ascending node id, which is breadth-first order; a limit
    deeper than the tree gives its leaves.  ``take(lv, keep)`` reads the
    nodes ``keep`` of level ``lv``, those some partition lists, once.
    Returns what ``take`` returned for each level, the tree of every taken
    node, the positions among the taken nodes of every partition's nodes,
    limit after limit and tree after tree, and where each limit's start:
    the k-th limit's are ``listed[start[k]:start[k + 1]]``.
    """
    taken, nodes = [], []
    for lv in levels:
        keep = np.flatnonzero(lv.leaf | (lv.depth in depths))
        if keep.size:
            taken.append(take(lv, keep))
            nodes.append((np.full(keep.size, lv.depth), lv.leaf[keep], lv.root[keep],
                          lv.node_id[keep]))
    depth, leaf, root, node_id = map(np.concatenate, zip(*nodes))
    deepest = int(depth.max())
    order = _tree_order(root, node_id, deepest)
    depth, leaf = depth[order], leaf[order]
    # A node is first listed by the shallowest limit at or below its depth;
    # a leaf also by every deeper limit, any other node by that one alone.
    first = np.searchsorted(depths, np.arange(deepest + 1))[depth]
    reps = np.where(leaf, len(depths) - first, 1)
    limit = np.arange(reps.sum()) - (np.cumsum(reps) - reps - first).repeat(reps)
    # a stable sort by limit keeps tree order within each; the narrowest
    # type sorts fastest (by radix, up to 16 bits)
    by_limit = np.argsort(limit.astype(np.min_scalar_type(len(depths))), kind="stable")
    start = np.zeros(len(depths) + 1, dtype=np.intp)
    np.cumsum(np.bincount(limit, minlength=len(depths)), out=start[1:])
    return taken, root, order.repeat(reps)[by_limit], start


# The job a worker process's pool initializer installed, so the tree source
# reaches each process once rather than with every batch.
_WORKER_JOB: dict = {}


def _install_job(job) -> None:
    _WORKER_JOB["job"] = job


def _grow_batch(trees: range, job=None):
    """Build trees ``trees`` of ``job`` (by default the installed one), grow
    them as one batch and hand its levels to the job's reader."""
    source, depths, kind, min_expected, z, read, points = job or _WORKER_JOB["job"]
    pairs, seeds = map(list, zip(*map(source, trees)))
    if min(seeds) < 0:
        raise ValueError("seed must be >= 0")
    levels = grow_levels(pairs, seeds, kind, depths[-1], min_expected, z, points)
    return read(levels, pairs, seeds, depths)


def grow_trees(
    source, count: int, n: int, depths, kind: str, min_expected: float, z: float,
    read, workers: int = 1, points: bool = False,
) -> list:
    """The one runner: grow ``count`` trees in batches and read each batch.

    ``source(i)`` returns tree i's (pair of ``n`` points, binning seed >= 0).
    Trees are built and grown in batches of up to ``BATCH`` points (one tree
    if larger) under the deepest of the sorted, validated ``depths``, with
    members in original order only if ``points``.  With several workers, a
    batch holds at most ``ceil(count / workers)`` trees, so each worker gets
    one, but never fewer than fill one ``BLOCK``: a job that fits in one
    ``BLOCK`` runs serially, without a pool.  Batches run serially, or over
    one process pool of at most one worker per batch, which needs ``source``
    and ``read`` to pickle.  Returns ``read(levels, pairs, seeds, depths)``
    of every batch, in order.
    """
    job = (source, check_growth_args(depths, kind, z), kind, min_expected, z, read, points)
    n = max(n, 1)
    per = max(1, min(BATCH // n, max(BLOCK // n, -(-count // max(workers, 1)))))
    batches = [range(a, min(a + per, count)) for a in range(0, count, per)]
    workers = min(workers, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_install_job,
                                 initargs=(job,)) as pool:
            return list(pool.map(_grow_batch, batches))
    return [_grow_batch(b, job) for b in batches]


def _read_bins(kind, stop, z, levels, pairs, seeds, depths) -> list[dict[int, Binning]]:
    """The ``Bin`` reader: each tree's ``Binning`` under every limit.

    A taken node's ``Bin`` is built once, whichever partitions list it, and
    holds its members in their original order: int64 slices of one array of
    the level's taken members, so no other member of the level stays alive.
    """
    def take(lv, keep):
        cnt = lv.observed[keep]
        end = np.cumsum(cnt)
        start = end - cnt
        # one gather of the taken nodes' members, cast after
        at = np.repeat((np.cumsum(lv.observed) - lv.observed)[keep] - start, cnt)
        at += np.arange(at.size)
        points_s = lv.points_s[at].astype(np.int64)
        points_t = lv.points_t[at].astype(np.int64)
        rows = zip(lv.lower_s[keep].tolist(), lv.upper_s[keep].tolist(),
                   lv.lower_t[keep].tolist(), lv.upper_t[keep].tolist(),
                   lv.expected[keep].tolist(), start.tolist(), end.tolist())
        return [Bin(ls, us, lt, ut, points_s[a:b], points_t[a:b], e, lv.depth)
                for ls, us, lt, ut, e, a, b in rows]

    taken, root, listed, start = read_off(levels, depths, take)
    bins = [b for level in taken for b in level]
    out: list[dict[int, Binning]] = [{} for _ in pairs]
    for d, part in zip(depths, np.split(listed, start[1:-1])):
        bounds = np.searchsorted(root[part], np.arange(len(pairs) + 1)).tolist()
        for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
            out[r][d] = Binning(bins=[bins[i] for i in part[a:b].tolist()], score_kind=kind,
                                stop=StopConfig(d, stop.min_expected),
                                min_split_expected=z, seed=seeds[r], n=pairs[r].n)
    return out


def tree_binnings(
    source, count: int, n: int, depths, kind: str, stop: StopConfig, z: float,
) -> list[dict[int, Binning]]:
    """Entry i maps each of ``depths`` to tree i's ``Binning`` under it: the
    ``Bin`` call of ``grow_trees``, run serially.  ``depths`` replace
    ``stop.max_depth``: only ``stop.min_expected`` is read."""
    batches = grow_trees(source, count, n, depths, kind, stop.min_expected, z,
                         partial(_read_bins, kind, stop, z), points=True)
    return [binnings for batch in batches for binnings in batch]


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
    lists its members in their original order.  ``depths`` replace
    ``stop.max_depth``: only ``stop.min_expected`` is read.
    """
    return tree_binnings(lambda _: (pair, seed), 1, pair.n, depths, kind, stop, z)[0]
