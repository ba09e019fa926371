import numpy as np
import pytest

from rankbin import (
    Bin,
    StopConfig,
    bin_pair,
    binning_to_json,
    root_bin,
    should_stop,
)
from rankbin.ranks import RankedPair


def _pair(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankedPair(s=rng.permutation(n) + 1, t=rng.permutation(n) + 1, n=n)


def test_root_bin_examples():
    b = root_bin(_pair(4))
    assert (b.lower_s, b.upper_s, b.lower_t, b.upper_t) == (0, 4, 0, 4)
    assert b.expected == 4.0 and b.depth == 0 and b.observed == 4
    b1 = root_bin(RankedPair(s=np.array([1]), t=np.array([1]), n=1))
    assert (b1.upper_s, b1.upper_t, b1.expected) == (1, 1, 1.0)


def test_root_bin_satisfies_invariants():
    for n in (1, 7, 50):
        p = _pair(n, seed=n)
        root_bin(p).validate(n)


def test_should_stop_disjunction():
    mk = lambda depth, e, o: Bin(0, 10, 0, 10, np.arange(1, o + 1),
                                 np.arange(1, o + 1), e, depth)
    cfg = StopConfig(max_depth=6, min_expected=10.0)
    assert should_stop(mk(6, 50.0, 5), cfg)          # depth boundary
    assert should_stop(mk(0, 10.0, 5), cfg)          # expected <= 10 boundary
    assert should_stop(mk(0, 50.0, 0), cfg)          # empty
    assert not should_stop(mk(2, 50.0, 12), StopConfig(max_depth=10))


def test_stop_config_validation():
    with pytest.raises(ValueError):
        StopConfig(max_depth=-1)
    with pytest.raises(ValueError):
        StopConfig(max_depth=3, min_expected=-0.5)


@pytest.mark.parametrize("n,kind", [(60, "chi"), (120, "random"), (200, "mi")])
def test_partition_every_grid_point_in_exactly_one_bin(n, kind):
    binning = bin_pair(_pair(n, seed=n), kind=kind,
                       stop=StopConfig(max_depth=5), z=5.0, seed=3)
    gs, gt = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1))
    membership = np.zeros(gs.shape, dtype=int)
    for b in binning.bins:
        membership += (
            (gs > b.lower_s) & (gs <= b.upper_s)
            & (gt > b.lower_t) & (gt <= b.upper_t)
        )
    assert np.all(membership == 1)


def test_binning_aggregate_invariants():
    n = 500
    binning = bin_pair(_pair(n, seed=2), kind="chi",
                       stop=StopConfig(max_depth=8), z=5.0, seed=1)
    assert sum(b.area for b in binning.bins) == n * n
    assert sum(b.observed for b in binning.bins) == n
    assert abs(sum(b.expected for b in binning.bins) - n) <= 1e-9 * n
    for b in binning.bins:
        b.validate(n)


def test_child_expected_proportional_to_side():
    from rankbin import split_at

    parent = root_bin(_pair(10, seed=4))
    lo, hi = split_at(parent, "s", 4)
    assert lo.expected == parent.expected * lo.side_s / parent.side_s
    assert hi.expected == parent.expected * hi.side_s / parent.side_s


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
