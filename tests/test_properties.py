"""Property tests of the growth path on small and odd inputs.

Tiny n, z = 0, ``min_expected`` = 0, a diagonal (t = s) pair whose every
split looks alike, and heavily tied raw data.  Each case checks that a
single-depth run equals the same depth read off a depth sweep byte for
byte, that both equal the per-limit replay oracle, and the partition
invariants of acceptance criterion 7.
"""

import numpy as np
from _oracles import replay_partitions
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankbin import StopConfig, bin_pair, bin_pair_by_depth, binning_to_json
from rankbin.ranks import RankedPair, rank_pair


def _pair(shape: str, n: int, seed: int) -> RankedPair:
    rng = np.random.default_rng(seed)
    if shape == "diagonal":
        s = rng.permutation(n) + 1
        return RankedPair(s=s, t=s.copy(), n=n)
    if shape == "tied":
        # four distinct values per margin: ranks come from tie-breaking draws
        return rank_pair(rng.integers(0, 4, n), rng.integers(0, 4, n), rng)
    return RankedPair(s=rng.permutation(n) + 1, t=rng.permutation(n) + 1, n=n)


def _check_partition(binning, n: int, z: float) -> None:
    bins = binning.bins
    assert sum(b.observed for b in bins) == n
    assert sum(b.area for b in bins) == n * n
    grid = np.zeros((n, n), dtype=int)
    for b in bins:
        b.validate(n)  # bounds, membership, expected == area / n
        grid[b.lower_s:b.upper_s, b.lower_t:b.upper_t] += 1
        if b.depth > 0:
            assert b.expected >= z
    assert np.all(grid == 1)  # the bins tile rank space without overlap


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 60),
    shape=st.sampled_from(["random", "diagonal", "tied"]),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 2.0, 5.0]),
    min_expected=st.sampled_from([0.0, 10.0]),
    depth=st.integers(0, 8),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
# z = 0 runs that once chose a cut on a bin's upper bound, where the upper
# child's expected count had rounded to 2e-16 instead of 0, and crashed
@example(n=27, shape="diagonal", kind="chi", z=0.0, min_expected=0.0,
         depth=8, data_seed=0, seed=0)
@example(n=44, shape="diagonal", kind="random", z=0.0, min_expected=0.0,
         depth=5, data_seed=0, seed=268435457)
def test_single_depth_matches_sweep_and_partitions(
    n, shape, kind, z, min_expected, depth, data_seed, seed
):
    pair = _pair(shape, n, data_seed)
    stop = StopConfig(max_depth=depth, min_expected=min_expected)
    sweep = bin_pair_by_depth(pair, kind, range(depth + 1), stop, z=z, seed=seed)
    assert sorted(sweep) == list(range(depth + 1))
    oracle = replay_partitions(pair, kind, range(depth + 1), stop, z, seed)
    for d, binning in sweep.items():
        single = bin_pair(pair, kind, StopConfig(d, min_expected), z=z, seed=seed)
        assert binning_to_json(single) == binning_to_json(binning)
        assert binning_to_json(oracle[d]) == binning_to_json(binning)
        _check_partition(binning, n, z)
