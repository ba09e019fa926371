import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from types import SimpleNamespace

import numpy as np
import pytest
from _oracles import (
    check_partition,
    chunked_goes_up,
    chunked_partition,
    per_bin_json,
    points_tree_binnings,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankbin import (
    StopConfig,
    bin_pair,
    bin_pair_by_depth,
    binning_to_json,
    chi2_statistic,
    simulate_null,
)
from rankbin import substreams
from rankbin.engine import (
    _goes_up, _partition, _read_bins, _tree_order, check_growth_args, grow_trees,
)
from rankbin.ranks import RankedPair
from rankbin.splitting import BLOCK, chunks
from rankbin.substreams import stream


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


def test_depth_limits_must_be_integers():
    # a fractional limit was truncated (a null table recording depth 2 for
    # 2.7) or failed on the partition lookup after growth
    with pytest.raises(ValueError, match="max_depth must be an integer"):
        StopConfig(max_depth=2.5)
    for bad in ([2.5], [3, float("nan")], [float("inf")], ["2"]):
        with pytest.raises(ValueError, match="depth limits must be integers"):
            check_growth_args(bad, "chi", 5.0)
    with pytest.raises(ValueError, match="depth limits must be integers"):
        simulate_null(50, [2.7], "chi", StopConfig(max_depth=3), n_sim=2)
    # integral values keep working
    assert check_growth_args([6.0, np.int64(3), 6], "chi", 5.0) == [3, 6]
    assert StopConfig(max_depth=6.0).max_depth == StopConfig(np.int64(6)).max_depth == 6
    pair = _pair(60)
    assert (binning_to_json(bin_pair(pair, "random", StopConfig(max_depth=6.0), seed=1))
            == binning_to_json(bin_pair(pair, "random", StopConfig(max_depth=6), seed=1)))


def test_binning_seeds_must_be_integers():
    # refused before growth, whether the tree would draw (a random-scored
    # root) or not (a chi root of 10 points at z = 5 is cut without a coin)
    for n, kind in ((10, "chi"), (40, "random")):
        with pytest.raises(TypeError):
            bin_pair(_pair(n), kind, StopConfig(max_depth=3), z=5.0, seed=1.5)
    # numpy ints and seeds of more than 64 bits keep working
    pair = _pair(40)
    want = binning_to_json(bin_pair(pair, "random", StopConfig(max_depth=3), seed=7))
    got = bin_pair(pair, "random", StopConfig(max_depth=3), seed=np.uint64(7))
    assert binning_to_json(got) == want
    assert bin_pair(pair, "random", StopConfig(max_depth=3), seed=2**64 + 5).seed == 2**64 + 5


@pytest.mark.parametrize("n, kind", [(10, "chi"), (11, "chi"), (11, "random")])
def test_root_split_follows_the_full_margin_rule(monkeypatch, n, kind):
    # Under chi a root is full on both margins and every eligible candidate
    # scores 0.  At z = 5, n = 10 has one eligible candidate per margin, 5:
    # the root is cut there on s and draws nothing.  n = 11 has two, 5 and
    # 6: both margins are flat and tie, so the root draws a coin from its
    # substream (node id 1) and is halved at 6 on the margin it picks.
    # Under random scoring the root draws its scores from that substream.
    calls = []

    def counted(seed, node_id):
        calls.append(node_id)
        return stream(seed, node_id)

    monkeypatch.setattr(substreams, "stream", counted)
    for seed in range(4):
        calls.clear()
        bins = bin_pair(_pair(n, seed), kind, StopConfig(max_depth=1, min_expected=0.0),
                        z=5.0, seed=seed).bins
        assert len(bins) == 2
        if kind == "random":
            assert calls == [1]
            continue
        if n == 10:
            assert calls == []
            on_t, cut = False, 5
        else:
            assert calls == [1]
            on_t, cut = stream(seed, 1).random() >= 0.5, 6
        lo = bins[0]
        assert (lo.upper_t if on_t else lo.upper_s) == cut
        assert (lo.upper_s if on_t else lo.upper_t) == n


def test_tree_order_matches_lexsort():
    # ids of a tree grown to depth d lie in [2**k, 2**(k + 1)) at depth k <= d;
    # roots up to 2**55 at d = 10 overflow int64 keys, as do object ids at d = 70
    rnd = random.Random(4)
    for n_roots, deepest, ids_kind in ((1000, 10, np.int64), (2**55, 10, np.int64),
                                       (50, 70, object)):
        pairs = set()
        while len(pairs) < 400:
            k = rnd.randint(0, deepest)
            pairs.add((rnd.randrange(n_roots), (1 << k) | rnd.getrandbits(k)))
        pairs = list(pairs)
        rnd.shuffle(pairs)
        root = np.array([r for r, _ in pairs], dtype=np.int64)
        node_id = np.array([i for _, i in pairs], dtype=ids_kind)
        assert np.array_equal(_tree_order(root, node_id, deepest),
                              np.lexsort((node_id, root)))


def test_concurrent_threads_match_serial_runs():
    # Every growth makes its own scratch workspace, so growths running at
    # once on two threads, switching often, give the serial bytes.
    stop = StopConfig(max_depth=6)

    def null(seed):
        return simulate_null(300, range(2, 7), "chi", stop, n_sim=20, seed=seed).to_csv_text()

    def binning(seed):
        pair = _pair(2000, seed=seed)
        return "".join(binning_to_json(bin_pair(pair, kind, stop, seed=seed))
                       for kind in ("chi", "mi", "random"))

    jobs = [(null, 0), (binning, 1), (null, 2), (binning, 3)] * 2
    want = [f(seed) for f, seed in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(f, seed) for f, seed in jobs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    # per node: member count (0 for a node the points order drops), whether
    # it is cut on t, and whether its lower and its upper child are kept
    nodes=st.lists(st.tuples(st.integers(0, 12), st.booleans(), st.booleans(),
                             st.booleans()), min_size=1, max_size=8),
    scale=st.sampled_from([1, 7, 409, 1201]),
    keep_all=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# a node over two chunks, an empty node, and a node ending on a chunk boundary
@example(nodes=[(BLOCK + 5, True, True, False), (0, False, False, False),
                (BLOCK - 5, False, False, True)], scale=1, keep_all=False, seed=1)
@example(nodes=[(3, False, True, True), (0, True, True, True), (2 * BLOCK, True, True, True)],
         scale=1, keep_all=True, seed=2)
def test_whole_level_moves_match_chunked_oracle(nodes, scale, keep_all, seed):
    # The whole-level up-mask and member move give, bit for bit, what the
    # chunked passes gave, chunk boundaries inside nodes and empty nodes
    # included.  Every cut sits on a member, so a member equal to its cut
    # must stay below.
    cnt = np.array([c * scale for c, *_ in nodes], dtype=np.int64)
    assume(cnt.sum() > 0)
    _, on_t, keep_lo, keep_up = (np.array(col) for col in zip(*nodes))
    keep_lo, keep_up = keep_lo | keep_all, keep_up | keep_all
    rng = np.random.default_rng(seed)
    order = rng.integers(1, 4 * int(cnt.max()) + 2, size=(2, int(cnt.sum()))).astype(np.int32)
    first = np.cumsum(cnt) - cnt
    # the cut on the cut margin's coordinate of a random member, 0 if empty
    pick = np.minimum(first + (rng.random(cnt.size) * cnt).astype(np.int64), cnt.sum() - 1)
    cut = np.where(cnt > 0, order[on_t.astype(np.intp), pick], 0).astype(np.int32)
    parts = chunks(cnt)
    up = _goes_up(order, on_t.repeat(cnt), cut.repeat(cnt))
    want_up = chunked_goes_up(order[0], order[1], parts, on_t, cut,
                              SimpleNamespace(hit=np.empty(BLOCK, dtype=bool)))
    assert up.dtype == want_up.dtype and up.tobytes() == want_up.tobytes()
    moved = _partition(order, up, keep_lo.repeat(cnt), keep_up.repeat(cnt))
    want = chunked_partition(order[0], order[1], want_up, parts,
                             None if keep_all else (keep_lo, keep_up))
    assert moved.shape == (2, want[0].size)
    for row, w in zip(moved, want):
        assert row.dtype == w.dtype and row.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3000),
    count=st.integers(1, 4),
    depths=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    kind=st.sampled_from(["chi", "mi", "random"]),
    min_expected=st.sampled_from([0.0, 10.0, 60.0]),
    seed=st.integers(0, 2**31),
)
@example(n=1, count=1, depths=[0], kind="chi", min_expected=10.0, seed=0)
@example(n=25_000, count=4, depths=[3, 10], kind="chi", min_expected=10.0, seed=0)
def test_read_bins_match_whole_level_oracle(n, count, depths, kind, min_expected, seed):
    # Labelling slots and sorting the labels once per limit gives the same
    # binnings, bin for bin, as the growth that carried every member in
    # original order and cast whole levels; each binning's points are int64,
    # its tree's points listed once each, and every Bin's points are slices
    # of an array that holds its limit's listed members alone.
    pairs = [_pair(n, seed + i) for i in range(count)]
    seeds = [seed + i for i in range(count)]
    stop, z = StopConfig(max(depths), min_expected), 2.0
    batches = grow_trees(lambda i: (pairs[i], seeds[i]), count, n, depths, kind,
                         min_expected, z, partial(_read_bins, kind, min_expected, z))
    got = [binnings for batch in batches for binnings in batch]
    want = points_tree_binnings(pairs, seeds, depths, kind, stop, z)
    assert [g.keys() for g in got] == [w.keys() for w in want]
    taken = {}
    for g, w in zip(got, want):
        for d in g:
            assert binning_to_json(g[d]) == per_bin_json(w[d])
            assert g[d].points_s.dtype == g[d].points_t.dtype == np.int64
            assert np.array_equal(np.sort(g[d].points_s), np.arange(1, n + 1))
            assert np.array_equal(np.sort(g[d].points_t), np.arange(1, n + 1))
            for b in g[d].bins:
                assert b.points_s.dtype == b.points_t.dtype == np.int64
                taken[id(b)] = b
    held = {id(p.base): p.base.size for b in taken.values() for p in (b.points_s, b.points_t)}
    assert sum(held.values()) == 2 * sum(b.observed for b in taken.values())
