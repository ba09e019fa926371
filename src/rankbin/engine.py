"""Level-synchronous growth of rank-space split trees, read off per depth limit.

Every tree grows through one runner, ``grow_trees``: null replicates and
scan pairs (``stats.tree_statistics``) as well as binnings
(``tree_binnings``, behind ``bin_pair``, ``bin_pair_by_depth`` and
``scan.pair_binnings``).  It validates the growth arguments, builds the
trees from a source in batches of up to ``BATCH`` points, runs the batches
serially or over one process pool, and hands each batch's levels to a
reader.  A batch grows under the deepest requested limit, one level at a
time: each pass freezes the nodes of that depth meeting a stop criterion
and scores and splits all the others at once (``splitting.best_splits``),
freezing those that cannot be split.

The members of the nodes still to be scored are kept in two orders, node
after node, by s and by t, which give every node's sorted candidates
without a sort; each is one two-row array of the members' s and t.  A
split marks the members going to the upper child in one mask per order
over the whole level, which moves them by one stable gather, so both
orders stay sorted from the root down; the s order's mask also counts the
children.  A cut on one margin leaves each child's members together in
its parent's order by that margin, so each ``Level`` names every node's
members as one range of its parent level's orders.  Only the scoring pass
runs in ``splitting.BLOCK`` chunks, into one ``splitting.Workspace`` per
batch.

A node's heap id (root 1; node k splits into 2k and 2k + 1) is the one
statement of its tree position.  With the tree's seed it fixes the node's
random substream (``substreams`` states the contract and makes the draws),
and alone its place in a partition: ascending id is breadth-first order.
``grow_levels`` yields each level in growth order (every lower child, then
every upper child), and only ``read_off`` orders nodes: by tree, then id.

The partition for a limit ``d`` lists, in breadth-first order, every leaf
above depth ``d`` and every node at depth ``d``: below ``d`` the stop
criteria of limit ``d`` and of the deepest limit differ only in the depth
test.  ``read_off`` applies this rule for both readers: the statistics
reader (``stats``) sums each tree's ``(n_bin, chi2)`` off the per-node
counts; the ``Bin`` reader (``_read_bins``) reads the listed nodes'
members off their ranges and gives each partition as a columnar
``Binning``, its points in original order from one stable sort of
per-point labels.

Under chi and mi a root is full on both margins (``splitting``): with two
or more eligible candidates per margin (n > 2 ceil(z) for z >= 1) it is
halved on a coin, with exactly one (n = 10 at z = 5) cut there, on s.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .bins import SCORE_KINDS, Binning, StopConfig, integral
from .ranks import RankedPair
from .scoring import lower_expected
from .splitting import BLOCK, Workspace, best_splits
from . import substreams


# Points per batch of trees grown together.  Every level of a batch pays a
# fixed numpy cost however few points it holds, so a batch spans several of
# the ``BLOCK`` chunks the scoring pass runs in; a larger one costs peak
# memory, which grows with the batch, for little more speed.
BATCH = 4 * BLOCK


class Level(NamedTuple):
    """Every node at one depth of the grown trees, in growth order.

    Per-node arrays are indexed alike.  ``root`` is each node's tree and
    ``node_id`` its heap id.  Node j's ``observed[j]`` members are the
    columns from ``first[j]`` on of ``orders[in_t[j]]``, the (by s, by t)
    orders its parent's level was scored with (a root's: the whole ones).
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
    orders: tuple[np.ndarray, np.ndarray]
    first: np.ndarray
    in_t: np.ndarray


def check_growth_args(depths, kind: str, z: float) -> list[int]:
    """Validate growth arguments; return the sorted distinct depth limits."""
    if not all(map(integral, depths)):
        raise ValueError("depth limits must be integers")
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


def _goes_up(order, on_t, cut):
    """Which members of ``order`` (rows s and t, node after node) exceed their
    node's ``cut`` on t if ``on_t``, else s; ``on_t`` and ``cut`` hold each
    member's node's value."""
    return np.where(on_t, order[1], order[0]) > cut


def _partition(order, up, keep_lo, keep_up):
    """Move each node's members to its two children, keeping their order.

    ``up`` marks the members going up (``_goes_up``); a member's lower child
    keeps its members if ``keep_lo`` of the member (its node's value), its
    upper child if ``keep_up``.  Returns every kept lower child's members,
    node by node, then every upper's.
    """
    idx = np.concatenate((np.flatnonzero(~up & keep_lo), np.flatnonzero(up & keep_up)))
    # ``take`` gathers the columns of a small-row array far faster than
    # indexing them
    return order.take(idx, axis=1)


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

    cnt = np.array([p.n for p in pairs], dtype=np.int64)
    lo_s, hi_s, lo_t, hi_t = np.zeros_like(cnt), cnt, np.zeros_like(cnt), cnt
    e = cnt.astype(float)
    root = np.arange(cnt.size)
    # node ids reach 2**(max_depth + 1) - 1; deeper trees need Python ints
    ids = np.ones(cnt.size, dtype=np.int64 if max_depth < 62 else object)
    depth = 0
    stop = stopped(e, cnt, depth)
    # Members by s and by t, each an order of (s, t) columns: rank r of a
    # tree starting at slot f goes to f + r - 1.  32-bit coordinates halve
    # what every pass moves
    coord = np.int32 if cnt.sum() < 2**31 else np.int64
    ws = Workspace()
    tree_seed = np.array(seeds, dtype=object)

    def draws(js, counts):  # for ``best_splits``: bins ``js`` of the level's ``act``
        return substreams.draws(tree_seed[root[act[js]]], ids[act[js]], counts)

    pts = np.array([np.concatenate([p.s for p in pairs]),
                    np.concatenate([p.t for p in pairs])], dtype=coord)
    first = np.cumsum(cnt) - cnt
    slot = np.repeat(first, cnt)
    by_s, by_t = np.empty_like(pts), np.empty_like(pts)
    # row by row: one 2-D fancy setitem takes 1.6 to 2 times as long
    for order, at in ((by_s, slot + pts[0] - 1), (by_t, slot + pts[1] - 1)):
        order[0, at], order[1, at] = pts
    del pts, slot, order, at
    orders, in_t = (by_s, by_t), np.zeros(cnt.size, dtype=bool)
    if stop.any():
        # the s and t orders hold only the members of bins still to be scored
        live = np.repeat(~stop, cnt)
        by_s, by_t = by_s.compress(live, axis=1), by_t.compress(live, axis=1)

    while True:
        act = np.flatnonzero(~stop)
        ok = np.zeros(act.size, dtype=bool)
        if act.size:
            ok, act_t, act_cut = best_splits(
                lo_s[act], hi_s[act], lo_t[act], hi_t[act], e[act], cnt[act],
                by_s[0], by_t[1], kind, z, draws, ws)
            act_cut = act_cut.astype(coord)
            on_t, cut = act_t[ok], act_cut[ok]
        split = act[ok]
        leaf = np.ones(cnt.size, dtype=bool)
        leaf[split] = False
        yield Level(depth, lo_s, hi_s, lo_t, hi_t, e, cnt, leaf, root, ids,
                    orders, first, in_t)
        if not split.size:
            return

        # Move every member of a split node to its child; the s order's
        # up-mask also counts the children.  A child's members lie together
        # in its parent's order by the margin cut, the lower child's first.
        # An unsplittable node's members are dropped, whatever its cut.
        k = split.size
        act_cnt = cnt[act]
        # each member's node's cut, spread once for both orders
        member_t, member_cut = act_t.repeat(act_cnt), act_cut.repeat(act_cnt)
        up_s = _goes_up(by_s, member_t, member_cut)
        at = np.cumsum(act_cnt) - act_cnt
        n_up = np.add.reduceat(up_s, at, dtype=np.intp)[ok]
        kid_cnt = np.concatenate((cnt[split] - n_up, n_up))
        at = at[ok]
        orders, in_t = (by_s, by_t), np.concatenate((on_t, on_t))
        first = np.concatenate((at, at + kid_cnt[:k]))
        e_lo = lower_expected(cut, np.where(on_t, lo_t[split], lo_s[split]),
                              np.where(on_t, hi_t[split], hi_s[split]), e[split])
        kid_e = np.concatenate((e_lo, e[split] - e_lo))
        kid_stop = stopped(kid_e, kid_cnt, depth + 1)
        if not kid_stop.all():
            up_t = _goes_up(by_t, member_t, member_cut)
            # freed before the gathers, which set the level's peak memory
            del member_t, member_cut
            keep_lo = np.zeros(act.size, dtype=bool)
            keep_up = np.zeros(act.size, dtype=bool)
            keep_lo[ok] = ~kid_stop[:k]
            keep_up[ok] = ~kid_stop[k:]
            keep_lo, keep_up = keep_lo.repeat(act_cnt), keep_up.repeat(act_cnt)
            by_s = _partition(by_s, up_s, keep_lo, keep_up)
            by_t = _partition(by_t, up_t, keep_lo, keep_up)

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
    """Positions of nodes sorted by tree, then heap id: one argsort of the
    key ``root << (deepest + 1) | node_id`` (ids of a tree grown to depth
    ``deepest`` are below ``2**(deepest + 1)``), in int64 while every key
    fits, else in Python ints, which also hold object ids (``max_depth`` >= 62).
    """
    fits = (int(root.max()) + 1) << (deepest + 1) <= 2**63
    dtype = np.int64 if fits else object
    return np.argsort((root.astype(dtype) << (deepest + 1)) | node_id.astype(dtype))


def read_off(levels, depths: list[int], take):
    """Read every tree's partition under each of ``depths`` off its levels.

    Partition d of a tree lists its leaves above depth d and its nodes at
    depth d by ascending node id.  ``take(lv, keep)`` reads the nodes
    ``keep`` of level ``lv`` that some partition lists, once.  Returns what
    ``take`` returned for each level, the tree of every taken node, and the
    positions among the taken nodes of every partition's nodes, limit after
    limit and tree after tree, the k-th limit's ``listed[start[k]:start[k + 1]]``.
    """
    taken, nodes = [], []
    for lv in levels:
        keep = np.flatnonzero(lv.leaf | (lv.depth in depths))
        if keep.size:
            taken.append(take(lv, keep))
            nodes.append((np.full(keep.size, lv.depth), lv.leaf[keep], lv.root[keep],
                          lv.node_id[keep]))
        del lv  # before the next level grows, so its members can go
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
    source, depths, kind, min_expected, z, read = job or _WORKER_JOB["job"]
    pairs, seeds = map(list, zip(*map(source, trees)))
    seeds = [operator.index(s) for s in seeds]  # before any tree draws
    if min(seeds) < 0:
        raise ValueError("seed must be >= 0")
    levels = grow_levels(pairs, seeds, kind, depths[-1], min_expected, z)
    return read(levels, pairs, seeds, depths)


def grow_trees(
    source, count: int, n: int, depths, kind: str, min_expected: float, z: float,
    read, workers: int = 1,
) -> list:
    """The one runner: grow ``count`` trees in batches and read each batch.

    ``source(i)`` returns tree i's (pair of ``n`` points, binning seed >= 0).
    Trees are built and grown in batches of up to ``BATCH`` points (one tree
    if larger) under the deepest of the sorted, validated ``depths``.  With
    several workers, a batch holds at most ``ceil(count / workers)`` trees,
    so each worker gets one, but never fewer than fill one ``BLOCK``: a job
    that fits in one ``BLOCK`` runs serially, without a pool.  Batches run
    serially, or over one process pool of at most one worker per batch,
    which needs ``source`` and ``read`` to pickle; ``workers`` < 1 is
    refused before any tree is built.  Returns ``read(levels, pairs, seeds,
    depths)`` of every batch, in order.
    """
    job = (source, check_growth_args(depths, kind, z), kind, min_expected, z, read)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = max(n, 1)
    per = max(1, min(BATCH // n, max(BLOCK // n, -(-count // workers))))
    batches = [range(a, min(a + per, count)) for a in range(0, count, per)]
    workers = min(workers, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_install_job,
                                 initargs=(job,)) as pool:
            return list(pool.map(_grow_batch, batches))
    return [_grow_batch(b, job) for b in batches]


def _read_bins(kind, min_expected, z, levels, pairs, seeds, depths) -> list[dict[int, Binning]]:
    """The ``Bin`` reader: each tree's ``Binning`` under every limit.

    Taken nodes' members are read once, as slots (tree offset + s); each
    limit labels every slot with its listed node's place, and one stable sort
    of the labels in original index order lists each bin's points in order.
    """
    n = np.array([p.n for p in pairs])
    base = np.cumsum(n) - n

    def take(lv, keep):
        cnt = lv.observed[keep]
        by_s, by_t = lv.orders
        at = np.repeat(lv.first[keep] - (np.cumsum(cnt) - cnt), cnt)
        at += np.arange(at.size)
        s = np.where(lv.in_t[keep].repeat(cnt), by_t[0].take(at), by_s[0].take(at))
        return (lv.lower_s[keep], lv.upper_s[keep], lv.lower_t[keep], lv.upper_t[keep],
                lv.expected[keep], np.full(keep.size, lv.depth), cnt,
                base[lv.root[keep]].repeat(cnt) + s)

    taken, root, listed, start = read_off(levels, depths, take)
    *cols, observed, slots = map(np.concatenate, zip(*taken))
    s = np.concatenate([p.s for p in pairs])
    t = np.concatenate([p.t for p in pairs])
    at = base.repeat(n) + s
    out: list[dict[int, Binning]] = [{} for _ in pairs]
    for d, part in zip(depths, np.split(listed, start[1:-1])):
        place = np.full(observed.size, -1)
        place[part] = np.arange(part.size)
        place = place.repeat(observed)
        # the narrowest label sorts fastest (by radix, up to 16 bits)
        label = np.empty(s.size + 1, dtype=np.min_scalar_type(part.size))
        mine = place >= 0  # slots also lie in nodes only other limits list
        label[slots[mine]] = place[mine]
        order = np.argsort(label[at], kind="stable")
        points_s, points_t = s[order], t[order]
        offsets = np.concatenate(([0], np.cumsum(observed[part])))
        bounds = np.searchsorted(root[part], np.arange(len(pairs) + 1)).tolist()
        for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
            lo, hi = offsets[a], offsets[b]
            out[r][d] = Binning(
                None, kind, StopConfig(d, min_expected), z, seeds[r], pairs[r].n,
                columns=(*(c[part[a:b]] for c in cols), offsets[a:b + 1] - lo,
                         points_s[lo:hi], points_t[lo:hi]))
    return out


def tree_binnings(
    source, count: int, n: int, depths, kind: str, min_expected: float, z: float,
) -> list[dict[int, Binning]]:
    """Entry i maps each of ``depths`` to tree i's ``Binning`` under it: the
    ``Bin`` call of ``grow_trees``, run serially."""
    batches = grow_trees(source, count, n, depths, kind, min_expected, z,
                         partial(_read_bins, kind, min_expected, z))
    return [binnings for batch in batches for binnings in batch]


def bin_pair(pair: RankedPair, kind: str = "chi", stop: StopConfig | None = None,
             z: float = 5.0, seed: int = 0) -> Binning:
    """Recursively bin a ranked pair and return the frozen partition.

    ``kind`` selects the split score ("chi", "mi", or "random"), ``stop``
    the freeze criteria, ``z`` the minimum expected count either side of an
    accepted split, and ``seed`` pins all randomness, bit for bit.
    """
    if stop is None:
        stop = StopConfig(max_depth=6)
    d = stop.max_depth
    return bin_pair_by_depth(pair, kind, [d], stop, z, seed)[d]


def bin_pair_by_depth(pair: RankedPair, kind: str, depths: list[int], stop: StopConfig,
                      z: float = 5.0, seed: int = 0) -> dict[int, Binning]:
    """Bin one pair under several depth limits sharing one grown tree.

    Equal to ``bin_pair`` once per depth (substreams depend only on tree
    position), but the tree is grown once, under the deepest limit, and each
    limit's partition read off it.  ``depths`` replace ``stop.max_depth``:
    only ``stop.min_expected`` is read.
    """
    return tree_binnings(lambda _: (pair, seed), 1, pair.n, depths, kind, stop.min_expected,
                         z)[0]
