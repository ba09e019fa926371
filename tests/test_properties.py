"""Property tests of the growth path on small and odd inputs.

Tiny n, z = 0, ``min_expected`` = 0, a diagonal (t = s) pair whose every
split looks alike, and heavily tied raw data.  Each case checks that a
single-depth run equals the same depth read off a depth sweep byte for
byte, that both equal the per-limit replay oracle and the per-bin engine,
and the partition invariants of acceptance criterion 7.  The batched null
simulation is checked row for row against the per-bin engine.
"""

import numpy as np
import pytest
from _oracles import per_bin_partitions, replay_partitions
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankbin import (
    NullTable,
    StopConfig,
    bin_pair,
    bin_pair_by_depth,
    binning_to_json,
    chi2_statistic,
    simulate_null,
)
from rankbin.ranks import RankedPair, rank_pair
from rankbin.stats import _NULL_CHUNK


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


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 300),
    shape=st.sampled_from(["random", "diagonal", "tied"]),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 2.0, 5.0]),
    min_expected=st.sampled_from([0.0, 10.0]),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=27, shape="diagonal", kind="chi", z=0.0, min_expected=0.0,
         data_seed=0, seed=0)
@example(n=44, shape="diagonal", kind="random", z=0.0, min_expected=0.0,
         data_seed=0, seed=268435457)
def test_level_engine_matches_per_bin_engine(
    n, shape, kind, z, min_expected, data_seed, seed
):
    pair = _pair(shape, n, data_seed)
    stop = StopConfig(max_depth=10, min_expected=min_expected)
    got = bin_pair_by_depth(pair, kind, range(11), stop, z=z, seed=seed)
    want = per_bin_partitions(pair, kind, range(11), stop, z, seed)
    for d in range(11):
        assert binning_to_json(got[d]) == binning_to_json(want[d])


def _per_bin_null(n, depths, kind, stop, z, n_sim, seed):
    """``simulate_null`` replicate by replicate through the per-bin engine."""
    rows = []
    for rep in range(n_sim):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep)))
        s = rng.permutation(n) + 1
        t = rng.permutation(n) + 1
        bin_seed = int(rng.integers(0, 2**63))
        parts = per_bin_partitions(RankedPair(s=s, t=t, n=n), kind, depths, stop,
                                   z, bin_seed)
        rows += [(d, *chi2_statistic(parts[d])[::-1]) for d in sorted(depths)]
    cols = np.array(rows, dtype=object).T
    return NullTable(n=n, depths=cols[0].astype(np.int64),
                     n_bins=cols[1].astype(np.int64), chi2s=cols[2].astype(float))


@pytest.mark.parametrize("n, depths, kind, min_expected, z, n_sim, workers", [
    # two batches, the second partly filled
    (1000, range(2, 11), "chi", 10.0, 5.0, 11, 1),
    # one replicate larger than a batch
    (_NULL_CHUNK + 808, [2, 4], "random", 10.0, 5.0, 2, 1),
    # the smallest n, down to single points
    (2, [0, 1, 2], "mi", 0.0, 0.0, 7, 1),
    # batches spread over worker processes
    (300, [3, 6], "mi", 10.0, 2.0, 60, 4),
])
def test_batched_null_matches_per_bin_replicates(n, depths, kind, min_expected,
                                                 z, n_sim, workers):
    stop = StopConfig(max(depths), min_expected)
    got = simulate_null(n, depths, kind, stop, z=z, n_sim=n_sim, seed=13,
                        workers=workers)
    want = _per_bin_null(n, depths, kind, stop, z, n_sim, 13)
    assert got.to_csv_text() == want.to_csv_text()
