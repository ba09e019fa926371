import numpy as np
import pytest
from _oracles import check_partition, per_bin_json
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankbin import Bin, Binning, StopConfig, bin_pair, binning_to_json
from rankbin.bins import _decimal_lists
from rankbin.ranks import RankedPair


def _pair(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankedPair(s=rng.permutation(n) + 1, t=rng.permutation(n) + 1, n=n)


def _root(pair):
    """The partition at depth limit 0: the root bin alone."""
    (b,) = bin_pair(pair, "chi", StopConfig(max_depth=0)).bins
    return b


def test_root_bin_examples():
    b = _root(_pair(4))
    assert (b.lower_s, b.upper_s, b.lower_t, b.upper_t) == (0, 4, 0, 4)
    assert b.expected == 4.0 and b.depth == 0 and b.observed == 4
    b1 = _root(RankedPair(s=np.array([1]), t=np.array([1]), n=1))
    assert (b1.upper_s, b1.upper_t, b1.expected) == (1, 1, 1.0)


def test_root_bin_satisfies_invariants():
    for n in (1, 7, 50):
        p = _pair(n, seed=n)
        check_partition(bin_pair(p, "chi", StopConfig(max_depth=0)), 5.0)


def test_should_stop_disjunction():
    # each criterion alone freezes a bin the others would let split
    def n_bin(pair, max_depth, min_expected):
        return bin_pair(pair, "chi", StopConfig(max_depth, min_expected), z=0.0).n_bin

    pair = _pair(10, seed=1)
    assert n_bin(pair, 1, 0.0) == 2       # depth boundary: the split root's children
    assert n_bin(pair, 6, 10.0) == 1      # expected <= 10 boundary: the root of n = 10
    assert n_bin(pair, 6, 9.99) > 1
    # empty: with no depth or size stop left, a tree still ends in empty leaves
    binning = bin_pair(_pair(40, seed=3), "chi", StopConfig(60, 0.0), z=0.0)
    assert any(b.observed == 0 and b.area > 1 and b.depth < 60 for b in binning.bins)
    assert max(b.depth for b in bin_pair(_pair(200, seed=2), "chi",
                                         StopConfig(max_depth=10)).bins) > 2


def test_stop_config_validation():
    with pytest.raises(ValueError):
        StopConfig(max_depth=-1)
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            StopConfig(max_depth=3, min_expected=bad)


@pytest.mark.parametrize("n,kind", [(60, "chi"), (120, "random"), (200, "mi")])
def test_partition_every_grid_point_in_exactly_one_bin(n, kind):
    binning = bin_pair(_pair(n, seed=n), kind=kind,
                       stop=StopConfig(max_depth=5), z=5.0, seed=3)
    check_partition(binning, 5.0)


def test_binning_aggregate_invariants():
    binning = bin_pair(_pair(500, seed=2), kind="chi",
                       stop=StopConfig(max_depth=8), z=5.0, seed=1)
    check_partition(binning, 5.0)


def test_child_expected_proportional_to_side():
    parent = _root(_pair(10, seed=4))
    lo, hi = bin_pair(_pair(10, seed=4), "chi", StopConfig(1, 0.0), z=0.0).bins
    side = "side_s" if lo.side_t == parent.side_t else "side_t"
    assert lo.expected == parent.expected * getattr(lo, side) / getattr(parent, side)
    assert hi.expected == parent.expected * getattr(hi, side) / getattr(parent, side)


def test_json_schema_field_order_and_17_digits():
    p = RankedPair(s=np.array([1, 2, 3]), t=np.array([3, 1, 2]), n=3)
    binning = bin_pair(p, kind="chi", stop=StopConfig(max_depth=0), z=5.0, seed=9)
    doc = binning_to_json(binning)
    assert doc.startswith(
        '{"n":3,"score_kind":"chi","seed":9,'
        '"stop":{"max_depth":0,"min_expected":10,"stop_empty":true},"bins":['
    )
    assert '"ls":0,"us":3,"lt":0,"ut":3,"depth":0,"expected":3,"observed":3' in doc
    assert '"points_s":[1,2,3],"points_t":[3,1,2]' in doc
    # 17 significant digits on a non-terminating fraction
    b = Bin(0, 3, 0, 7, np.array([1]), np.array([1]), 21 / 9.0, 1)
    from rankbin.bins import _fmt_real

    assert _fmt_real(b.expected) == "2.3333333333333335"
    # parses as JSON
    import json

    parsed = json.loads(doc)
    assert list(parsed) == ["n", "score_kind", "seed", "stop", "bins"]
    assert list(parsed["bins"][0]) == [
        "ls", "us", "lt", "ut", "depth", "expected", "observed",
        "points_s", "points_t",
    ]


def test_json_deterministic():
    p = _pair(80, seed=5)
    a = binning_to_json(bin_pair(p, "random", StopConfig(max_depth=6), 5.0, 11))
    b = binning_to_json(bin_pair(p, "random", StopConfig(max_depth=6), 5.0, 11))
    assert a == b


def _runs_text(values, bounds):
    return [str(values[a:b].tolist())[1:-1].replace(" ", "")
            for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(st.one_of(st.integers(0, 12), st.integers(2**32 - 3, 2**32 + 3),
                              st.integers(-2**63, 2**63 - 1)), max_size=30),
    cuts=st.lists(st.integers(0, 30), max_size=5),
)
@example(values=[], cuts=[])
@example(values=[0], cuts=[0])  # an empty run first
@example(values=[2**32 - 1, 2**32, 0], cuts=[1, 1, 3])
@example(values=[-2**63, 2**63 - 1, -1, 10], cuts=[4])
def test_decimal_lists_match_the_list_repr(values, cuts):
    v = np.array(values, dtype=np.int64)
    bounds = np.array(sorted([0, v.size] + [min(c, v.size) for c in cuts]), dtype=np.intp)
    assert _decimal_lists(v, bounds) == _runs_text(v, bounds)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint32, np.int64, np.uint64])
def test_decimal_lists_cover_each_integer_type(dtype):
    info = np.iinfo(dtype)
    v = np.array([0, info.max, info.min, 1, 9, 10, info.max // 10], dtype=dtype)
    bounds = np.array([0, 0, 3, 3, 7], dtype=np.intp)
    assert _decimal_lists(v, bounds) == _runs_text(v, bounds)
    with pytest.raises(ValueError, match="integers"):
        _decimal_lists(v.astype(float), bounds)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(0, 4), max_size=8),
    top=st.sampled_from([1, 9, 10, 99_999, 2**32 - 1, 2**32, 2**40]),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[0, 1], top=9, seed=0)  # an empty bin first, then one point
@example(sizes=[1], top=2**32, seed=1)
@example(sizes=[2, 0, 0], top=10, seed=2)
@example(sizes=[], top=1, seed=3)
def test_json_matches_per_bin_oracle(sizes, top, seed):
    rng = np.random.default_rng(seed)
    bins = [Bin(0, 1, 0, 1, rng.integers(0, top + 1, k), rng.integers(0, top + 1, k),
                k / 2, 1) for k in sizes]
    binning = Binning(bins, "chi", StopConfig(3), 5.0, seed, n=max(sum(sizes), 1))
    assert binning_to_json(binning) == per_bin_json(binning)


@pytest.mark.parametrize("kind", ["chi", "mi", "random"])
@pytest.mark.parametrize("n", [1, 2, 7, 755, 1000])
def test_grown_binning_json_matches_per_bin_oracle(kind, n):
    binning = bin_pair(_pair(n, seed=n), kind, StopConfig(max_depth=6), z=1.0, seed=n)
    assert binning_to_json(binning) == per_bin_json(binning)


def test_binning_columns_and_bin_views():
    # a binning built from Bins holds them by column; a grown one lists Bin
    # views of its columns, int64 slices of one point array per margin
    bins = [Bin(0, 3, 0, 7, np.array([1, 2]), np.array([5, 1]), 1.5, 1),
            Bin(3, 7, 0, 7, np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4.0, 1)]
    binning = Binning(bins, "chi", StopConfig(1), 5.0, 0, n=7)
    assert binning.bins is bins and binning.n_bin == 2
    assert binning.offsets.tolist() == [0, 2, 2] and binning.observed.tolist() == [2, 0]
    assert binning.points_t.tolist() == [5, 1] and binning.upper_s.tolist() == [3, 7]
    grown = bin_pair(_pair(300, seed=2), "mi", StopConfig(max_depth=5), z=2.0, seed=3)
    views = grown.bins
    assert views is grown.bins and len(views) == grown.n_bin
    for b, a, z in zip(views, grown.offsets, grown.offsets[1:]):
        assert b.points_s.base is grown.points_s.base and b.observed == z - a
    assert per_bin_json(grown) == binning_to_json(grown)
    with pytest.raises(ValueError, match="differ in length"):
        Binning([Bin(0, 1, 0, 1, np.array([1]), np.array([], dtype=np.int64), 1.0, 0)],
                "chi", StopConfig(1), 5.0, 0, n=1)
