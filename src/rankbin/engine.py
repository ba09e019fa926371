"""Iterative refinement of a rank-space partition to a fixed point.

Each round, every bin failing the stop criteria is split by the
score-maximizing splitter; the rest are frozen.  Bins are processed in
creation order, and the final partition lists frozen bins in the order in
which they froze (ties broken by that same traversal order).

Randomness is splittable: every bin in the binary split tree owns a
substream derived from the run seed and the bin's tree position (root id 1,
a split of node k creating lower child 2k and upper child 2k+1), namely
``default_rng(SeedSequence(entropy=(seed, node_id)))`` from numpy (PCG64).
A bin's draws are therefore independent of what happened elsewhere in the
tree, and the partition grown to one depth limit agrees exactly with a
deeper run truncated at that limit.  Within one bin's substream the order
of consumption is: s-margin score draws, t-margin score draws, then the
degenerate-tie margin pick if needed.

The first split of the root is always the fully degenerate tie case: the
ranks fill 1..n with no gaps, so each candidate's observed prefix count
matches its expectation exactly and every score is zero.  The root is
therefore halved on a random margin.
"""

from __future__ import annotations

import numpy as np

from .bins import SCORE_KINDS, Bin, Binning, StopConfig, root_bin, should_stop
from .ranks import RankedPair
from .splitting import UnsplittableBinError, max_score_split

_Node = tuple[Bin, int]


def _bin_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, node_id)))


def _grow(
    pair: RankedPair, kind: str, cfg: StopConfig, z: float, seed: int
) -> tuple[_Node, dict[int, tuple[_Node, _Node]]]:
    """Split to ``cfg``'s limits, recording each node's children by tree id."""
    root: _Node = (root_bin(pair), 1)
    children: dict[int, tuple[_Node, _Node]] = {}
    active = [] if should_stop(root[0], cfg) else [root]
    while active:
        nxt = []
        for b, nid in active:
            try:
                lo, hi = max_score_split(b, kind, z, _bin_rng(seed, nid))
            except UnsplittableBinError:
                # No admissible split exists (size floor); leave it frozen.
                continue
            pair_nodes = ((lo, 2 * nid), (hi, 2 * nid + 1))
            children[nid] = pair_nodes
            for child in pair_nodes:
                if not should_stop(child[0], cfg):
                    nxt.append(child)
        active = nxt
    return root, children


def _replay(
    root: _Node, children: dict[int, tuple[_Node, _Node]], cfg: StopConfig
) -> list[Bin]:
    """Re-run the freeze/split bookkeeping for one stop config over a grown tree."""
    def frozen_at(nd: _Node) -> bool:
        # stop criteria, or no admissible split existed when grown
        return should_stop(nd[0], cfg) or nd[1] not in children

    nodes = [root]
    stopped = [frozen_at(root)]
    while not all(stopped):
        done = [nd for nd, st in zip(nodes, stopped) if st]
        fresh: list[_Node] = []
        for nd, st in zip(nodes, stopped):
            if not st:
                lo, hi = children[nd[1]]
                fresh.append(lo)
                fresh.append(hi)
        nodes = done + fresh
        stopped = [True] * len(done) + [frozen_at(nd) for nd in fresh]
    return [nd[0] for nd in nodes]


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
    position), but the splits are computed once at the deepest limit.
    """
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
    cfgs = [StopConfig(d, stop.min_expected) for d in depths]
    root, children = _grow(pair, kind, cfgs[-1], z, seed)
    return {
        cfg.max_depth: Binning(
            bins=_replay(root, children, cfg),
            score_kind=kind,
            stop=cfg,
            min_split_expected=z,
            seed=seed,
            n=pair.n,
        )
        for cfg in cfgs
    }
