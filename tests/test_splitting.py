from unittest import mock

import numpy as np
import pytest
from _oracles import allocating_scored, one_bin_split, per_bin_split_at, stream_draws
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankbin import Bin, StopConfig, bin_pair_by_depth, splitting
from rankbin.ranks import RankedPair
from rankbin.splitting import BLOCK, Workspace, _full_summary, _scored, best_splits


def mk_bin(ls, us, lt, ut, pts_s, pts_t, expected, depth=0):
    return Bin(ls, us, lt, ut, np.asarray(pts_s, dtype=np.int64),
               np.asarray(pts_t, dtype=np.int64), float(expected), depth)


def _pair(n, seed=0):
    rng = np.random.default_rng(seed)
    return RankedPair(s=rng.permutation(n) + 1, t=rng.permutation(n) + 1, n=n)


def _children(b, kind, z, rng):
    """Cut ``b`` where the library's ``best_splits`` chooses to."""
    ok, on_t, cut = one_bin_split(b, kind, z, rng)
    assert ok
    return per_bin_split_at(b, "t" if on_t else "s", cut)


def _splits(pair, kind, max_depth, z=5.0, seed=0):
    """Every split the engine makes growing ``pair``: (parent, lower, upper).

    A depth limit's partition lists the nodes at that depth in breadth-first
    order, so the children of each split node come as a lower, upper pair.
    """
    parts = bin_pair_by_depth(pair, kind, range(max_depth + 1),
                              StopConfig(max_depth, 0.0), z=z, seed=seed)
    out = []
    for d in range(max_depth):
        parents = {(b.lower_s, b.upper_s, b.lower_t, b.upper_t): b
                   for b in parts[d].bins if b.depth == d}
        kids = [b for b in parts[d + 1].bins if b.depth == d + 1]
        for lo, hi in zip(kids[0::2], kids[1::2]):
            out.append((parents[(lo.lower_s, hi.upper_s, lo.lower_t, hi.upper_t)], lo, hi))
    assert out
    return out


def _margin(parent, lo):
    """The cut margin of a split: (on s, lower bound, upper bound, cut)."""
    if lo.upper_s < parent.upper_s:
        return True, parent.lower_s, parent.upper_s, lo.upper_s
    return False, parent.lower_t, parent.upper_t, lo.upper_t


def test_split_at_proportional_expected():
    for kind in ("chi", "mi", "random"):
        for parent, lo, hi in _splits(_pair(200, seed=5), kind, 6):
            on_s, lower, upper, cut = _margin(parent, lo)
            if on_s:
                assert (lo.lower_t, lo.upper_t) == (hi.lower_t, hi.upper_t) \
                    == (parent.lower_t, parent.upper_t)
                assert (lo.lower_s, hi.lower_s, hi.upper_s) == (lower, cut, upper)
            else:
                assert (lo.lower_s, lo.upper_s) == (hi.lower_s, hi.upper_s) \
                    == (parent.lower_s, parent.upper_s)
                assert (lo.lower_t, hi.lower_t, hi.upper_t) == (lower, cut, upper)
            share = (cut - lower) / (upper - lower)
            assert lo.expected == pytest.approx(parent.expected * share, rel=1e-12)
            assert hi.expected == parent.expected - lo.expected
            assert lo.depth == hi.depth == parent.depth + 1


def test_split_at_boundary_point_goes_to_lower_child():
    on_line = 0
    for parent, lo, hi in _splits(_pair(200, seed=6), "chi", 6):
        on_s, _, _, cut = _margin(parent, lo)
        coords, lo_c, hi_c = ((parent.points_s, lo.points_s, hi.points_s) if on_s
                              else (parent.points_t, lo.points_t, hi.points_t))
        if cut in coords:
            on_line += 1
            assert cut in lo_c
        assert np.all(lo_c <= cut) and np.all(hi_c > cut)
    assert on_line > 10  # chi cuts mostly sit on a member


def test_split_at_conserves_points_and_area():
    for kind in ("chi", "mi", "random"):
        for parent, lo, hi in _splits(_pair(150, seed=7), kind, 6, z=2.0, seed=3):
            assert lo.observed + hi.observed == parent.observed
            assert lo.area + hi.area == parent.area
            assert lo.expected + hi.expected == pytest.approx(parent.expected)
            for side in ("points_s", "points_t"):
                merged = np.sort(np.concatenate([getattr(lo, side), getattr(hi, side)]))
                assert np.array_equal(merged, np.sort(getattr(parent, side)))


def test_cut_lies_strictly_inside_the_bin():
    # a cut on or outside either bound would leave a child of zero or
    # negative width; small sides, members on the upper bound and z = 0
    # are where one could slip through
    rng = np.random.default_rng(17)
    seen = {"s": 0, "t": 0, "unsplittable": 0}
    for trial in range(600):
        ls, lt = (int(v) for v in rng.integers(0, 50, 2))
        side_s, side_t = (int(v) for v in rng.integers(1, 25, 2))
        o = int(rng.integers(1, min(side_s, side_t) + 1))
        s = rng.choice(np.arange(ls + 1, ls + side_s + 1), size=o, replace=False)
        t = rng.choice(np.arange(lt + 1, lt + side_t + 1), size=o, replace=False)
        b = mk_bin(ls, ls + side_s, lt, lt + side_t, s, t, rng.uniform(0.5, 40.0))
        kind = ("chi", "mi", "random")[trial % 3]
        z = (0.0, 2.0, 5.0)[trial // 3 % 3]
        ok, on_t, cut = one_bin_split(b, kind, z, np.random.default_rng(trial))
        if not ok:
            seen["unsplittable"] += 1
            continue
        lower, upper = (b.lower_t, b.upper_t) if on_t else (b.lower_s, b.upper_s)
        assert lower < cut < upper
        seen["t" if on_t else "s"] += 1
    assert min(seen.values()) > 0


def test_root_bin_halves_at_midpoint_on_random_margin():
    # degenerate case: every root-bin score ties, so the bin is halved at
    # ceiling(n/2); the margin choice is seed-dependent
    n = 1000
    margins = set()
    for seed in range(8):
        p = _pair(n, seed=seed)
        b = mk_bin(0, n, 0, n, p.s, p.t, n)
        ok, on_t, cut = one_bin_split(b, "chi", 5.0, np.random.default_rng(seed))
        assert ok and cut == 500
        margins.add("t" if on_t else "s")
    assert margins == {"s", "t"}


def test_halving_coordinate_is_ceiling_of_midpoint():
    # bounds (3, 8] halve at ceiling(5.5) = 6; points on the diagonal of a
    # square bin tie every eligible score
    pts = [4, 5, 6, 7, 8]
    b = mk_bin(3, 8, 3, 8, pts, pts, 25.0)
    ok, _, cut = one_bin_split(b, "chi", 0.0, np.random.default_rng(0))
    assert ok and cut == 6


def test_worked_example_splits_on_s_at_5():
    # s-candidates [0,1,2,5,10] score [1.11, 1.56, 2.0] (max 2.0 at coord 5);
    # t-candidates [0,3,4,6,10] score below 2.0 everywhere
    b = mk_bin(0, 10, 0, 10, [2, 5], [4, 6], 4.0)
    assert one_bin_split(b, "chi", 0.0, np.random.default_rng(0)) == (True, False, 5)
    lo, hi = per_bin_split_at(b, "s", 5)
    assert lo.observed == 2 and hi.observed == 0


def test_deterministic_for_chi_and_mi_off_tie_case():
    rng = np.random.default_rng(8)
    s = np.sort(rng.choice(np.arange(1, 101), size=30, replace=False))
    t = rng.choice(np.arange(1, 101), size=30, replace=False)
    b = mk_bin(0, 100, 0, 100, s, t, 40.0)
    for kind in ("chi", "mi"):
        first = one_bin_split(b, kind, 5.0, np.random.default_rng(1))
        assert first[0]
        for seed in range(2, 6):
            assert one_bin_split(b, kind, 5.0, np.random.default_rng(seed)) == first


def test_children_satisfy_invariants_and_partition_parent():
    rng = np.random.default_rng(3)
    for kind in ("chi", "mi", "random"):
        for trial in range(20):
            n = 200
            s = np.sort(rng.choice(np.arange(1, n + 1), size=50, replace=False))
            t = rng.choice(np.arange(1, n + 1), size=50, replace=False)
            b = mk_bin(0, n, 0, n, s, t, n / 2, depth=1)
            lo, hi = _children(b, kind, 5.0, np.random.default_rng(trial))
            assert lo.observed + hi.observed == b.observed
            assert lo.area + hi.area == b.area
            assert lo.depth == hi.depth == 2
            assert lo.expected + hi.expected == pytest.approx(b.expected)
            assert min(lo.expected, hi.expected) >= 5.0


def test_mi_negative_scores_do_not_select_gated_candidates():
    # a sparse bin whose eligible mi scores are all negative: the split must
    # still respect the size floor rather than jump to a gated zero
    b = mk_bin(0, 100, 0, 100, [1, 50], [40, 90], 15.0)
    lo, hi = _children(b, "mi", 5.0, np.random.default_rng(0))
    assert min(lo.expected, hi.expected) >= 5.0


def test_line_square_bin_is_halved():
    # all points on the diagonal of a square bin: every eligible score ties,
    # so the bin halves instead of slicing at the first eligible candidate
    pts = np.arange(1, 501)
    b = mk_bin(0, 500, 0, 500, pts, pts, 250.0, depth=2)
    ok, _, cut = one_bin_split(b, "chi", 5.0, np.random.default_rng(4))
    assert ok and cut == 250
    lo, hi = _children(b, "chi", 5.0, np.random.default_rng(4))
    assert {lo.side_s * lo.side_t, hi.side_s * hi.side_t} == {500 * 250}


def test_unknown_kind_rejected():
    # before any stream is drawn: a root is full on both margins, so nothing
    # is scored, and its tie would draw the halving coin
    def rng_of(j):
        raise AssertionError("a stream was drawn")

    s = np.arange(1, 21, dtype=np.int32)
    root = ([np.array([v]) for v in (0, 20, 0, 20)], 20.0, s, s)
    one = ([np.array([v]) for v in (0, 10, 0, 10)], 10.0, s[4:5], s[4:5])
    for bounds, e, ss, tt in (root, one):
        with pytest.raises(ValueError, match="unknown score kind 'quux'"):
            best_splits(*bounds, np.array([e]), np.array([ss.size]), ss, tt, "quux", 5.0,
                        stream_draws(rng_of), Workspace())


def test_unsplittable_when_both_halvings_undercut_floor():
    # expected 10.05 on odd sides 21 and 93: either halving leaves the
    # smaller child below 5, and every candidate is gated
    pts_s = [3, 18]
    pts_t = [5, 88]
    b = mk_bin(0, 21, 0, 93, pts_s, pts_t, 10.05)
    splittable, _, _ = one_bin_split(b, "chi", 5.0, np.random.default_rng(0))
    assert not splittable


def test_degenerate_halving_prefers_margin_that_respects_floor():
    # s side 11 cannot halve (10.5 * 5/11 < 5) but the even t side can
    pts_s = [2, 9]
    pts_t = [100, 800]
    b = mk_bin(0, 11, 0, 966, pts_s, pts_t, 10.5)
    for seed in range(6):
        assert one_bin_split(b, "chi", 5.0, np.random.default_rng(seed)) == (True, True, 483)
        lo, hi = per_bin_split_at(b, "t", 483)
        assert min(lo.expected, hi.expected) >= 5.0


@pytest.mark.parametrize("kind", ["chi", "mi"])
def test_full_margin_closed_form_matches_scoring(kind):
    # A full margin holds one member per rank and expects its width.  Its
    # summary in closed form equals, bit for bit, the summary the general
    # path gives by scoring every candidate of the same bins.
    lower = np.array([0, 7, 1000])
    for n in range(1, 61):
        coords = np.concatenate([np.arange(lo + 1, lo + n + 1) for lo in lower]).astype(np.int32)
        cnt, e = np.full(lower.size, n), np.full(lower.size, float(n))
        for z in (0.0, 0.5, 2.5, 5.0, float(n), 1e300):
            want = _scored([(coords, lower, lower + n, (None, None))], cnt, e, kind, z,
                           Workspace())[0]
            got = _full_summary(lower, lower + n, z)
            assert np.array_equal(got[0], want[0]), (n, z)
            assert got[1].tobytes() == want[1].tobytes(), (n, z)
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3]), (n, z)


def _level(cnt, full, seed):
    """One level of bins holding ``cnt[j]`` members each, for ``best_splits``.

    ``full[j]`` names the margins ("", "s", "t" or "st") on which bin j holds
    one member per rank and expects exactly its width; the other margins are
    wider than the bin's count, and a bin full on neither expects a random
    share of its count.  Returns (lo_s, hi_s, lo_t, hi_t, e, cnt, ss, tt)
    with bounds in int64 and sorted coordinates in int32, as the engine
    passes them.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for c, f in zip(cnt, full):
        w_s, w_t = (c if m in f else c + int(rng.integers(1, 3 * c + 2)) for m in "st")
        lo_s, lo_t = (int(v) for v in rng.integers(0, 10**6, 2))
        s = np.sort(rng.choice(w_s, c, replace=False)) + lo_s + 1
        t = np.sort(rng.choice(w_t, c, replace=False)) + lo_t + 1
        e = float(c) if f else float(rng.uniform(0.25, 3.0)) * c
        rows.append((lo_s, lo_s + w_s, lo_t, lo_t + w_t, e, s, t))
    lo_s, hi_s, lo_t, hi_t = (np.array([r[i] for r in rows], dtype=np.int64) for i in range(4))
    ss, tt = (np.concatenate([r[i] for r in rows]).astype(np.int32) for i in (5, 6))
    return (lo_s, hi_s, lo_t, hi_t, np.array([r[4] for r in rows]),
            np.array(cnt, dtype=np.int64), ss, tt)


# Bin counts are a small multiple of a scale, so that many levels hold more
# than a ``BLOCK`` of points and chunk boundaries fall inside bins.
_LEVELS = dict(
    bins=st.lists(st.tuples(st.integers(1, 12), st.sampled_from(["", "", "s", "t", "st"])),
                  min_size=1, max_size=8),
    scale=st.sampled_from([1, 7, 409, 1201]),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 0.5, 2.5, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_LEVELS)
# 9,500 points: the first chunk ends inside the third bin, and the last is short
@example(bins=[(6, ""), (6, "s"), (6, ""), (1, "t")], scale=500, kind="mi", z=2.5, seed=1)
@example(bins=[(BLOCK, ""), (1, ""), (BLOCK - 1, "st")], scale=1, kind="random", z=0.0, seed=2)
# more bins than a ``BLOCK``: their pseudo-points are scored in two chunks
@example(bins=[(1, ""), (2, "s")] * (BLOCK // 2 + 2), scale=1, kind="chi", z=0.5, seed=5)
def test_workspace_scoring_matches_allocating_oracle(bins, scale, kind, z, seed):
    # The scoring pass with one scratch workspace gives, bit for bit, the
    # summaries of the pass that allocated every temporary per chunk.
    cnt, full = zip(*((c * scale, f) for c, f in bins))
    lo_s, hi_s, lo_t, hi_t, e, cnt, ss, tt = _level(cnt, full, seed)
    rng = np.random.default_rng(seed)
    draws = [(rng.random(cnt.size), rng.random(ss.size)) if kind == "random" else (None, None)
             for _ in "st"]
    margins = [(ss, lo_s, hi_s, draws[0]), (tt, lo_t, hi_t, draws[1])]
    ws = Workspace()
    got = _scored(margins, cnt, e, kind, z, ws)
    again = _scored(margins, cnt, e, kind, z, ws)  # a used workspace
    want = allocating_scored(margins, cnt, e, kind, z)
    for g, a, w in zip(got, again, want):
        for x, y, v in zip(g, a, w):
            assert x.dtype == v.dtype and x.tobytes() == y.tobytes() == v.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_LEVELS)
@example(bins=[(6, ""), (6, "s"), (6, ""), (1, "t")], scale=500, kind="chi", z=5.0, seed=3)
@example(bins=[(BLOCK + 1, "st"), (3000, ""), (10, "t")], scale=1, kind="chi", z=0.5, seed=4)
def test_workspace_best_splits_matches_allocating_oracle(bins, scale, kind, z, seed):
    # best_splits on its workspace path, full margins and the subsets of
    # bins left to score included, against the same function scoring
    # through the allocating pass
    cnt, full = zip(*((c * scale, f) for c, f in bins))
    level = _level(cnt, full, seed)

    def split(ws):
        rng_of = lambda j: np.random.default_rng((seed, j))  # noqa: E731
        return best_splits(*level, kind, z, stream_draws(rng_of), ws)

    got = split(Workspace())
    oracle = lambda margins, cnt, e, kind, z, ws: allocating_scored(margins, cnt, e, kind, z)
    with mock.patch.object(splitting, "_scored", oracle):
        want = split(None)
    for x, w in zip(got, want):
        assert x.dtype == w.dtype and x.tobytes() == w.tobytes()
