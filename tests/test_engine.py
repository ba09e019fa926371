import numpy as np
import pytest
from _oracles import check_partition

from rankbin import (
    StopConfig,
    bin_pair,
    bin_pair_by_depth,
    binning_to_json,
    chi2_statistic,
    simulate_null,
)
from rankbin.ranks import RankedPair


def _pair(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankedPair(s=rng.permutation(n) + 1, t=rng.permutation(n) + 1, n=n)


def test_partition_invariants_on_uniform_data():
    n = 1000
    binning = bin_pair(_pair(n, seed=1), kind="chi",
                       stop=StopConfig(max_depth=6), z=5.0, seed=0)
    check_partition(binning, 5.0)


def test_max_depth_zero_returns_single_root_bin():
    binning = bin_pair(_pair(50), kind="chi", stop=StopConfig(max_depth=0))
    assert binning.n_bin == 1
    b = binning.bins[0]
    assert (b.lower_s, b.upper_s, b.lower_t, b.upper_t) == (0, 50, 0, 50)
    assert b.depth == 0


def test_perfect_agreement_dwarfs_independent_case():
    # the line statistic should sit far above typical independent values
    n = 1000
    perm = np.random.default_rng(3).permutation(n) + 1
    line = RankedPair(s=perm, t=perm, n=n)
    stop = StopConfig(max_depth=6)
    chi2_line, _ = chi2_statistic(bin_pair(line, "chi", stop, 5.0, seed=2))
    null = simulate_null(n, [6], "chi", stop, z=5.0, n_sim=30, seed=5)
    assert chi2_line >= 20 * np.median(null.chi2s)


def test_reproducible_bit_for_bit():
    pair = _pair(300, seed=9)
    stop = StopConfig(max_depth=8)
    for kind in ("chi", "mi", "random"):
        a = binning_to_json(bin_pair(pair, kind, stop, 5.0, seed=77))
        b = binning_to_json(bin_pair(pair, kind, stop, 5.0, seed=77))
        assert a == b


def test_seed_changes_random_binning():
    pair = _pair(300, seed=9)
    stop = StopConfig(max_depth=8)
    a = binning_to_json(bin_pair(pair, "random", stop, 5.0, seed=1))
    b = binning_to_json(bin_pair(pair, "random", stop, 5.0, seed=2))
    assert a != b


def test_depth_sweep_matches_single_depth_runs():
    pair = _pair(400, seed=4)
    stop = StopConfig(max_depth=9)
    for kind in ("chi", "random"):
        sweep = bin_pair_by_depth(pair, kind, [2, 5, 9], stop, z=5.0, seed=31)
        for d in (2, 5, 9):
            single = bin_pair(pair, kind, StopConfig(max_depth=d), z=5.0, seed=31)
            assert binning_to_json(sweep[d]) == binning_to_json(single)


def test_monotone_refinement_across_depths():
    pair = _pair(600, seed=12)
    sweep = bin_pair_by_depth(pair, "chi", list(range(0, 9)),
                              StopConfig(max_depth=8), z=5.0, seed=6)
    for d in range(8):
        coarse = sweep[d].bins
        fine = sweep[d + 1].bins
        # every fine bin lies inside exactly one coarse bin
        for fb in fine:
            holders = [
                cb for cb in coarse
                if cb.lower_s <= fb.lower_s and fb.upper_s <= cb.upper_s
                and cb.lower_t <= fb.lower_t and fb.upper_t <= cb.upper_t
            ]
            assert len(holders) == 1


def test_termination_with_size_stops_only():
    # no depth cap in practice: a huge max_depth still terminates through
    # the expected-count and empty-bin criteria
    pair = _pair(500, seed=2)
    binning = bin_pair(pair, "chi", StopConfig(max_depth=60), z=5.0, seed=0)
    assert binning.n_bin <= 500
    assert all(b.expected >= 5.0 for b in binning.bins)


def test_invalid_arguments():
    pair = _pair(20)
    for z in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            bin_pair(pair, "chi", StopConfig(max_depth=3), z=z)
    with pytest.raises(ValueError):
        bin_pair(pair, "chi", StopConfig(max_depth=3), seed=-4)
    with pytest.raises(ValueError):
        bin_pair_by_depth(pair, "chi", [], StopConfig(max_depth=3))
    # checked before growing, even when the root never splits
    with pytest.raises(ValueError):
        bin_pair_by_depth(pair, "chi", [0], StopConfig(max_depth=3), z=-1.0)
    with pytest.raises(ValueError):
        bin_pair_by_depth(pair, "chi", [0], StopConfig(max_depth=3), seed=-4)
    with pytest.raises(ValueError, match="unknown score kind"):
        bin_pair_by_depth(pair, "chebyshev", [0], StopConfig(max_depth=3))


@pytest.mark.parametrize("kind", ["chi", "random"])
def test_object_node_ids_match_int64_ids(kind):
    # max_depth 64 keeps node ids as Python ints, 61 as int64; this diagonal
    # tree stops well before either limit, at depth 19 or more (ids past 2**19)
    perm = np.random.default_rng(13).permutation(300) + 1
    pair = RankedPair(s=perm, t=perm, n=300)
    deep, shallow = (bin_pair(pair, kind, StopConfig(max_depth=d, min_expected=0.0),
                              z=0.0, seed=9) for d in (64, 61))
    assert max(b.depth for b in deep.bins) > 12
    assert binning_to_json(deep) == binning_to_json(shallow).replace(
        '"max_depth":61', '"max_depth":64')
    # several partitions read off one tree, ordered by object and by int64 ids
    stop = StopConfig(max_depth=64, min_expected=0.0)
    deep = bin_pair_by_depth(pair, kind, [3, 8, 15, 64], stop, z=0.0, seed=9)
    shallow = bin_pair_by_depth(pair, kind, [3, 8, 15, 61], stop, z=0.0, seed=9)
    for d in (3, 8, 15):
        assert binning_to_json(deep[d]) == binning_to_json(shallow[d])
    assert binning_to_json(deep[64]) == binning_to_json(shallow[61]).replace(
        '"max_depth":61', '"max_depth":64')
