"""``rankbin.substreams`` against numpy's per-item constructions, bit for bit,
its two draw paths against each other, and what ``best_splits`` asks of it."""

import numpy as np
import pytest
from _oracles import per_bin_draws, per_pair_scan, per_pair_seed
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN, _sha, golden_outputs

from rankbin import StopConfig, bin_pair_by_depth, binning_to_json, scan_pairs, substreams
from rankbin import simulate_null
from rankbin.ranks import RankedPair
from rankbin.splitting import BLOCK, Workspace, best_splits
from rankbin.substreams import BULK_COINS, draws, first_draws, generate_state, pair_seeds
from rankbin.substreams import pcg64_first, stream

# one, two and three 32-bit words, and more
SEEDS = st.one_of(st.integers(0, 2**32), st.integers(0, 2**64), st.integers(2**64, 2**100))
# int64 node ids, and the Python-int ids of trees grown to max_depth >= 62
NODE_IDS = st.one_of(st.integers(1, 2**62), st.integers(2**63, 2**130))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(base_seed=SEEDS, jobs=st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
                                      max_size=12))
@example(base_seed=2**64, jobs=[(0, 1), (2**32 - 1, 2**32), (0, 0)])
@example(base_seed=0, jobs=[])
def test_pair_seeds_match_seed_sequence(base_seed, jobs):
    assert pair_seeds(base_seed, jobs) == [per_pair_seed(base_seed, *job) for job in jobs]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(items=st.lists(st.tuples(SEEDS, NODE_IDS), min_size=1, max_size=24),
       int64_ids=st.booleans())
@example(items=[(0, 1), (2**64 - 1, 2**62), (2**64, 2**63), (5, 2**64)], int64_ids=False)
def test_coins_match_default_rng(items, int64_ids):
    # a level mixes word counts: each group of items is hashed on its own;
    # a hashed first draw is ``random()`` bit for bit, so its coin is too
    seeds, ids = zip(*items)
    ids = np.array(ids, dtype=np.int64 if int64_ids and max(ids) < 2**63 else object)
    got = first_draws(np.array(seeds, dtype=object), ids)
    want = np.array([per_bin_draws(s, i, 1)[0] for s, i in items])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert ((got >= 0.5) == (want >= 0.5)).all()


def _bins(draw):
    """Seeds, node ids and counts of a ``draws`` call drawn from ``draw``,
    the ids in int64 when asked and they fit, else Python ints."""
    items, int64_ids, ones = draw
    seeds, ids, counts = zip(*items) if items else ((), (), ())
    fits = int64_ids and max(ids, default=0) < 2**63
    return (np.array(seeds, dtype=object), np.array(ids, dtype=np.int64 if fits else object),
            np.ones(len(items), dtype=np.int64) if ones else np.array(counts, dtype=np.int64))


# counts of 1 to a few ``BLOCK``s, a root under random scoring drawing 2n + 3
COUNTS = st.one_of(st.integers(1, 5), st.integers(1, 3 * BLOCK))
ONES = [(7, k, 1) for k in range(1, BULK_COINS + 2)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(draw=st.tuples(st.lists(st.tuples(st.one_of(st.integers(0, 2**63 - 1), SEEDS), NODE_IDS,
                                         COUNTS), max_size=2 * BULK_COINS),
                      st.booleans(), st.booleans()))
@example(draw=([], True, False))  # an empty call
# all ones just below, at and above the crossover, on both kinds of ids
@example(draw=(ONES[:-2], True, True))
@example(draw=(ONES[:-1], True, True))
@example(draw=(ONES, False, True))
@example(draw=([(2**64 + 3, 2**63, 1)] * BULK_COINS + [(0, 1, 1)], False, True))
# one bin over three ``BLOCK``s beside one-draw bins
@example(draw=([(5, 2, 3 * BLOCK + 1), (2**70, 2**62, 1), (0, 3, 2)], True, False))
def test_draws_match_default_rng(draw):
    seeds, ids, counts = _bins(draw)
    got = draws(seeds, ids, counts)
    want = np.concatenate([np.empty(0)] + [per_bin_draws(s, i, c) for s, i, c in
                                           zip(seeds, ids.tolist(), counts.tolist())])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(entropy=st.lists(st.lists(SEEDS, min_size=3, max_size=3), min_size=1, max_size=4),
       spawn_key=st.lists(SEEDS, max_size=3), n_words=st.integers(1, 9))
def test_generate_state_and_first_draw_match_numpy(entropy, spawn_key, n_words):
    items = list(zip(*entropy))  # entropy of 1 to 4 integers per item, 3 items
    got = generate_state([np.array(col, dtype=object) for col in entropy], n_words,
                         tuple(spawn_key))
    first = pcg64_first(generate_state([np.array(col, dtype=object) for col in entropy], 8))
    for i, item in enumerate(items):
        ss = np.random.SeedSequence(item, spawn_key=tuple(spawn_key))
        assert got[:, i].tolist() == ss.generate_state(n_words).tolist()
        assert int(first[i]) == int(np.random.PCG64(np.random.SeedSequence(item)).random_raw())


def test_entropy_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError, match="non-negative"):
        pair_seeds(-1, [(0, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        first_draws(np.array([3]), np.array([-2]))
    with pytest.raises(TypeError):
        pair_seeds(1.5, [(0, 1)])


@pytest.mark.parametrize("n", [1, BULK_COINS - 1, BULK_COINS, 50])
def test_tie_coins_take_one_path_either_side_of_the_crossover(monkeypatch, n):
    seeds = np.array([k * 2**40 + 7 for k in range(n)], dtype=object)
    ids = np.arange(1, n + 1, dtype=np.int64)
    built, bulk = [], []

    def counted(seed, node_id):
        built.append((seed, node_id))
        return stream(seed, node_id)

    def recorded(seeds, node_ids):
        bulk.append(node_ids.tolist())
        return first_draws(seeds, node_ids)

    monkeypatch.setattr(substreams, "stream", counted)
    monkeypatch.setattr(substreams, "first_draws", recorded)
    got = draws(seeds, ids, np.ones(n, dtype=np.int64))
    assert got.tolist() == [per_bin_draws(s, i, 1)[0] for s, i in zip(seeds, ids.tolist())]
    if n >= BULK_COINS:
        assert built == [] and bulk == [ids.tolist()]
    else:
        assert built == list(zip(seeds, ids.tolist())) and bulk == []


def _level(*parts):
    """One level for ``best_splits`` of the bins of ``parts``, in turn."""
    return tuple(map(np.concatenate, zip(*parts)))


def _roots(n_roots, n=20):
    """``n_roots`` roots of n points each.  Under chi and mi both margins
    are full: at z = 5 every root of n > 10 is degenerate with tied margins,
    so draws a coin, and a root of 10 is cut at 5 without one."""
    full = np.full(n_roots, n)
    ranks = np.tile(np.arange(1, n + 1), n_roots)
    return (np.zeros(n_roots, dtype=np.int64), full, np.zeros(n_roots, dtype=np.int64), full,
            full.astype(float), full, ranks, ranks)


def _corners(k):
    """``k`` bins of two points in opposite corners: every candidate is below
    the floor at z = 5, so each halves on its tie coin, under any scoring."""
    lo, hi = np.zeros(k, dtype=np.int64), np.full(k, 100)
    return (lo, hi, lo, hi, np.full(k, 20.0), np.full(k, 2), np.tile([1, 2], k),
            np.tile([99, 100], k))


@pytest.mark.parametrize("kind", ["chi", "mi"])
def test_chi_and_mi_tie_coins_come_from_one_call(kind):
    # one call of one draw each, for the tied bins only
    level = _level(_roots(5), _roots(3, n=10), _corners(4), _roots(7))
    tied = [*range(5), *range(8, 19)]
    seeds = np.arange(19, dtype=np.uint64) * 2**40 + 7
    asked = []

    def draws_of(js, counts):
        asked.append((js.tolist(), counts.tolist()))
        return draws(seeds[js], np.ones(js.size, dtype=np.int64), counts)

    ok, on_t, cut = best_splits(*level, kind, 5.0, draws_of, Workspace())
    assert asked == [(tied, [1] * len(tied))]
    coin = [per_bin_draws(int(seeds[j]), 1, 1)[0] >= 0.5 for j in tied]
    assert ok.all() and on_t[tied].tolist() == coin
    assert not on_t[5:8].any() and (cut[5:8] == 5).all()
    assert (cut[:5] == 10).all() and (cut[8:12] == 50).all()


def test_random_scoring_coins_stay_per_bin():
    # under random scoring one call asks every bin for 2 * cnt + 3 draws of
    # its own stream, and a tied bin's coin is the last of them
    level = _level(_roots(3, n=4), _corners(5), _roots(2, n=7))
    cnt = level[5]
    asked = []

    def draws_of(js, counts):
        asked.append((js.tolist(), counts.tolist()))
        return draws(np.full(js.size, 3), js + 1, counts)

    ok, on_t, cut = best_splits(*level, "random", 5.0, draws_of, Workspace())
    assert asked == [(list(range(10)), (2 * cnt + 3).tolist())]
    coin = [per_bin_draws(3, j + 1, 7)[6] >= 0.5 for j in range(3, 8)]
    assert ok[3:8].all() and on_t[3:8].tolist() == coin and (cut[3:8] == 50).all()


@pytest.fixture(params=[0, 10**9], ids=["every_level_bulk", "never_bulk"])
def bulk_coins(request, monkeypatch):
    monkeypatch.setattr(substreams, "BULK_COINS", request.param)
    return request.param


def test_both_coin_paths_give_the_golden_bytes(bulk_coins):
    got = golden_outputs()
    assert {name: _sha(text) for name, text in got.items()} == GOLDEN


def test_both_coin_paths_give_the_same_scan(bulk_coins):
    # 45 pairs of 300 rows grow as one batch: 45 tied roots at once
    rng = np.random.default_rng(21)
    table = {f"c{i}": rng.normal(size=300) for i in range(10)}
    table["c4"] = np.round(table["c4"], 1)
    stop = StopConfig(max_depth=5)
    null = simulate_null(300, [5], "chi", stop, z=5.0, n_sim=20, seed=1)
    want = per_pair_scan(table, "chi", stop, 5.0, 6, null)
    assert scan_pairs(table, "chi", stop, 5.0, 6, null) == want


@pytest.mark.parametrize("kind", ["chi", "mi"])
def test_both_coin_paths_give_the_same_deep_tree(bulk_coins, monkeypatch, kind):
    # max_depth 64 grows object node ids; this diagonal tree halves a tied
    # bin at most levels, down past depth 12
    ids = []

    def recorded(seeds, node_ids):
        ids.append(node_ids.dtype)
        return first_draws(seeds, node_ids)

    monkeypatch.setattr(substreams, "first_draws", recorded)
    perm = np.random.default_rng(13).permutation(300) + 1
    pair = RankedPair(s=perm, t=perm, n=300)
    stop = StopConfig(max_depth=64, min_expected=0.0)
    got = bin_pair_by_depth(pair, kind, [6, 64], stop, z=0.0, seed=2**64 - 1)
    monkeypatch.setattr(substreams, "BULK_COINS", 10**9 - bulk_coins)
    want = bin_pair_by_depth(pair, kind, [6, 64], stop, z=0.0, seed=2**64 - 1)
    for d in (6, 64):
        assert binning_to_json(got[d]) == binning_to_json(want[d])
    assert max(b.depth for b in got[64].bins) > 12
    assert ids and set(ids) == {np.dtype(object)}
