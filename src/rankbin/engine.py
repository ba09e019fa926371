"""Breadth-first growth of a rank-space split tree, read off per depth limit.

The tree is grown once, level by level, under the deepest requested limit:
every bin failing the stop criteria is split by the score-maximizing
splitter, and the rest are leaves.  The partition for a limit ``d`` lists,
in breadth-first order, every leaf above depth ``d`` and every node at
depth ``d``.  Below ``d`` the stop criteria of limit ``d`` and of the
deepest limit differ only in the depth test, so a node freezes under ``d``
exactly when it is a leaf of the grown tree.

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


def _bin_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, node_id)))


def _grow(
    pair: RankedPair, kind: str, cfg: StopConfig, z: float, seed: int
) -> list[tuple[Bin, bool]]:
    """Split to ``cfg``'s limits; every node in breadth-first order, flagged as a leaf."""
    nodes: list[tuple[Bin, bool]] = []
    level = [(root_bin(pair), 1)]
    while level:
        nxt = []
        for b, nid in level:
            if should_stop(b, cfg):
                nodes.append((b, True))
                continue
            try:
                lo, hi = max_score_split(b, kind, z, _bin_rng(seed, nid))
            except UnsplittableBinError:
                # No admissible split exists (size floor); leave it frozen.
                nodes.append((b, True))
                continue
            nodes.append((b, False))
            nxt += [(lo, 2 * nid), (hi, 2 * nid + 1)]
        level = nxt
    return nodes


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
    each limit's partition is read off the tree's node list.
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
    nodes = _grow(pair, kind, StopConfig(depths[-1], stop.min_expected), z, seed)
    return {
        d: Binning(
            bins=[b for b, leaf in nodes if b.depth == d or (leaf and b.depth < d)],
            score_kind=kind,
            stop=StopConfig(d, stop.min_expected),
            min_split_expected=z,
            seed=seed,
            n=pair.n,
        )
        for d in depths
    }
