"""``rankbin.substreams`` against numpy's per-item constructions, bit for bit,
and the engine's two tie-coin paths against each other."""

import numpy as np
import pytest
from _oracles import per_bin_coin, per_pair_scan, per_pair_seed
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN, _sha, golden_outputs

from rankbin import StopConfig, bin_pair_by_depth, binning_to_json, engine, scan_pairs
from rankbin import simulate_null
from rankbin.ranks import RankedPair
from rankbin.splitting import Workspace, best_splits
from rankbin.substreams import coins, generate_state, pair_seeds, pcg64_first

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
    # a level mixes word counts: each group of items is hashed on its own
    seeds, ids = zip(*items)
    ids = np.array(ids, dtype=np.int64 if int64_ids and max(ids) < 2**63 else object)
    got = coins(np.array(seeds, dtype=object), ids)
    assert got.dtype == bool and got.tolist() == [per_bin_coin(s, i) for s, i in items]


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
        coins(np.array([3]), np.array([-2]))
    with pytest.raises(TypeError):
        pair_seeds(1.5, [(0, 1)])


@pytest.mark.parametrize("n", [1, engine.BULK_COINS - 1, engine.BULK_COINS, 50])
def test_tie_coins_take_one_path_either_side_of_the_crossover(monkeypatch, n):
    seeds = np.array([k * 2**40 + 7 for k in range(n)], dtype=object)
    ids = np.arange(1, n + 1, dtype=np.int64)
    built, bulk = [], []

    def counted(seed, node_id):
        built.append((seed, node_id))
        return np.random.default_rng(np.random.SeedSequence((seed, node_id)))

    def recorded(seeds, node_ids):
        bulk.append(node_ids.tolist())
        return coins(seeds, node_ids)

    monkeypatch.setattr(engine, "_bin_rng", counted)
    monkeypatch.setattr(engine, "coins", recorded)
    got = engine._coins(seeds, ids)
    assert got.dtype == bool
    assert got.tolist() == [per_bin_coin(s, i) for s, i in zip(seeds, ids.tolist())]
    if n >= engine.BULK_COINS:
        assert built == [] and bulk == [ids.tolist()]
    else:
        assert built == list(zip(seeds, ids.tolist())) and bulk == []


def _roots(n_roots, n=20):
    """``n_roots`` roots of n points each, as one level for ``best_splits``:
    under chi and mi every one is degenerate with tied margins, so draws a coin."""
    full = np.full(n_roots, n)
    ranks = np.tile(np.arange(1, n + 1), n_roots)
    return (np.zeros(n_roots, dtype=np.int64), full, np.zeros(n_roots, dtype=np.int64), full,
            full.astype(float), full, ranks, ranks)


@pytest.mark.parametrize("kind", ["chi", "mi"])
def test_chi_and_mi_tie_coins_come_from_one_call(kind):
    seeds = np.arange(12, dtype=np.uint64) * 2**40 + 7
    asked = []

    def rng_of(j):
        raise AssertionError("a stream was built under " + kind)

    def coins_of(js):
        asked.append(js.tolist())
        return coins(seeds[js], np.ones(js.size, dtype=np.int64))

    ok, on_t, cut = best_splits(*_roots(12), kind, 5.0, rng_of, coins_of, Workspace())
    assert asked == [list(range(12))]
    assert ok.all() and on_t.tolist() == [per_bin_coin(int(s), 1) for s in seeds]
    assert (cut == 10).all()


def test_random_scoring_coins_stay_per_bin():
    # under random scoring a tie coin is a later draw of a stream the bin
    # already built, so ``coins_of`` is never called
    def coins_of(js):
        raise AssertionError("coins hashed under random scoring")

    rng_of = lambda j: np.random.default_rng((3, j))  # noqa: E731
    best_splits(*_roots(30, n=4), "random", 5.0, rng_of, coins_of, Workspace())


@pytest.fixture(params=[0, 10**9], ids=["every_level_bulk", "never_bulk"])
def bulk_coins(request, monkeypatch):
    monkeypatch.setattr(engine, "BULK_COINS", request.param)
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
        return coins(seeds, node_ids)

    monkeypatch.setattr(engine, "coins", recorded)
    perm = np.random.default_rng(13).permutation(300) + 1
    pair = RankedPair(s=perm, t=perm, n=300)
    stop = StopConfig(max_depth=64, min_expected=0.0)
    got = bin_pair_by_depth(pair, kind, [6, 64], stop, z=0.0, seed=2**64 - 1)
    monkeypatch.setattr(engine, "BULK_COINS", 10**9 - bulk_coins)
    want = bin_pair_by_depth(pair, kind, [6, 64], stop, z=0.0, seed=2**64 - 1)
    for d in (6, 64):
        assert binning_to_json(got[d]) == binning_to_json(want[d])
    assert max(b.depth for b in got[64].bins) > 12
    assert ids and set(ids) == {np.dtype(object)}
