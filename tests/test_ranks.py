import itertools
from collections import Counter

import numpy as np
import pytest
from _oracles import stable_rank
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankbin import RankedPair, rank, rank_pair
from rankbin.ranks import _sample, _shuffled_ranks


def test_distinct_values_rank_by_sort_index():
    rng = np.random.default_rng(0)
    assert rank([3.1, 1.2, 2.5], rng).tolist() == [3, 1, 2]


def test_sorted_distinct_input_is_identity():
    rng = np.random.default_rng(0)
    assert rank([1, 2, 3, 4], rng).tolist() == [1, 2, 3, 4]


def test_all_tied_draws_each_permutation_uniformly():
    rng = np.random.default_rng(123)
    counts = Counter()
    for _ in range(10_000):
        counts[tuple(rank([5.0, 5.0, 5.0], rng))] += 1
    perms = set(itertools.permutations((1, 2, 3)))
    assert set(counts) == perms
    for p in perms:
        assert abs(counts[p] / 10_000 - 1 / 6) <= 0.02


def test_rank_is_a_permutation_for_any_input():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        v = np.round(rng.normal(size=n), 1)  # plenty of ties
        r = rank(v, rng)
        assert sorted(r) == list(range(1, n + 1))


def test_order_preserved_on_untied_values():
    rng = np.random.default_rng(8)
    v = np.array([2.0, 2.0, 5.0, 1.0, 2.0, 7.0])
    for _ in range(20):
        r = rank(v, rng)
        assert r[3] == 1            # unique minimum
        assert r[2] == 5 and r[5] == 6  # unique top two
        assert sorted(r[[0, 1, 4]]) == [2, 3, 4]  # tied run gets 2..4


def test_tie_breaking_is_exchangeable():
    # Relabeling tied entries must not change the rank distribution:
    # position 0 and position 2 hold the same value, so their rank
    # frequencies should match.
    rng = np.random.default_rng(9)
    hits = np.zeros(3)
    trials = 6000
    for _ in range(trials):
        r = rank([4.0, 4.0, 4.0], rng)
        hits += r == 1
    assert np.all(np.abs(hits / trials - 1 / 3) < 0.03)


def test_rank_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rank([], rng)
    with pytest.raises(ValueError):
        rank([1.0, np.nan], rng)
    with pytest.raises(ValueError):
        rank([1.0, np.inf], rng)


@pytest.mark.parametrize("values", [np.array([[3.0, 1.0], [2.0, 5.0]]), 7.0, [[1.0]]])
def test_only_one_dimensional_samples_are_ranked(values):
    # none is flattened into a sample of its cells
    with pytest.raises(ValueError, match="one-dimensional"):
        rank(values, np.random.default_rng(0))
    with pytest.raises(ValueError, match="one-dimensional"):
        rank_pair(values, values, np.random.default_rng(0))


def test_rank_pair_trivial_examples():
    rng = np.random.default_rng(0)
    p = rank_pair([1, 2], [2, 1], rng)
    assert p.s.tolist() == [1, 2] and p.t.tolist() == [2, 1]
    p = rank_pair([10, 20, 30], [30, 20, 10], rng)
    assert p.s.tolist() == [1, 2, 3] and p.t.tolist() == [3, 2, 1]


def test_rank_pair_length_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rank_pair([1, 2, 3], [1, 2], rng)


def test_tied_margin_gives_uncorrelated_uniform_ranks():
    # x constant: its ranks are pure tie-breaking noise, so the Spearman
    # correlation with an independent y should average out to zero.
    n = 100
    corrs = []
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        p = rank_pair(np.ones(n), rng.normal(size=n), rng)
        corrs.append(np.corrcoef(p.s, p.t)[0, 1])
    assert abs(np.mean(corrs)) < 0.05


def test_ranked_pair_validates_permutations():
    with pytest.raises(ValueError):
        RankedPair(s=np.array([1, 1]), t=np.array([1, 2]), n=2)
    with pytest.raises(ValueError):
        RankedPair(s=np.array([1, 2]), t=np.array([1, 2]), n=3)
    with pytest.raises(ValueError):
        RankedPair(s=np.array([]), t=np.array([]), n=0)


def test_ranked_pair_refuses_non_integer_ranks():
    # a cast to int64 would truncate 1.5 to the permutation [1, 2]
    for s in ([1.5, 2.0], [np.nan, 1.0], [1.0, 2.0 + 2**-40], ["1", "2"]):
        with pytest.raises(ValueError, match="s is not a permutation"):
            RankedPair(s=np.array(s), t=np.array([2, 1]), n=2)
    # and would wrap 2**64 + 1 to 1
    with pytest.raises(ValueError, match="t is not a permutation"):
        RankedPair(s=np.array([2, 1]), t=np.array([2, 2**64 + 1], dtype=object), n=2)
    # integral values of any type are ranks
    pair = RankedPair(s=np.array([2.0, 1.0]), t=np.array([1, 2], dtype=np.uint8), n=2)
    assert pair.s.dtype == pair.t.dtype == np.int64 and pair.s.tolist() == [2, 1]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 1200),
    # distinct values drawn per column: 1 is all equal, None no tie at all
    levels=st.sampled_from([1, 2, 7, 60, None]),
    signed_zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, levels=None, signed_zeros=False, seed=0)
@example(n=2, levels=1, signed_zeros=False, seed=1)
@example(n=2, levels=None, signed_zeros=True, seed=2)
@example(n=755, levels=60, signed_zeros=False, seed=3)
@example(n=755, levels=None, signed_zeros=True, seed=4)
def test_rank_matches_stable_oracle(n, levels, signed_zeros, seed):
    # Trying the default sort first gives, bit for bit, the ranks of the
    # stable sort alone, and leaves the stream where it left it; so does a
    # sample ranked straight by the stable sort of one shuffle.
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) - levels // 2.0
    if signed_zeros and n >= 2:
        v[rng.choice(n, size=2, replace=False)] = [-0.0, 0.0]
    want_rng = np.random.default_rng(seed)
    want = stable_rank(v, want_rng)
    for ranks, got_rng in ((rank, np.random.default_rng(seed)),
                           (lambda v, rng: _shuffled_ranks(_sample(v), rng.permutation(v.size)),
                            np.random.default_rng(seed))):
        got = ranks(v, got_rng)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300), tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=1, tied=False, seed=0)
@example(n=2, tied=True, seed=1)
def test_rank_pair_matches_oracle(n, tied, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2, n))
    if tied:
        x = np.round(x)
    pair = rank_pair(x, y, np.random.default_rng(seed))
    want_rng = np.random.default_rng(seed)
    for got, want in ((pair.s, stable_rank(x, want_rng)), (pair.t, stable_rank(y, want_rng))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert pair.n == n
    RankedPair(s=pair.s, t=pair.t, n=pair.n)  # a valid pair without the check


def test_known_tied_sample_goes_straight_to_the_stable_sort(monkeypatch):
    kinds = []
    argsort = np.argsort

    def counted(a, *args, kind=None, **kwargs):
        kinds.append(kind)
        return argsort(a, *args, kind=kind, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    rng = np.random.default_rng(0)
    tied = np.round(rng.normal(size=755), 1)
    _shuffled_ranks(tied, rng.permutation(tied.size))
    assert kinds == ["stable"]
    kinds.clear()
    rank(tied, rng)  # a failed try first
    assert kinds == [None, "stable"]
    kinds.clear()
    rank(rng.normal(size=755), rng)
    assert kinds == [None]
