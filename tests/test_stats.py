from functools import partial

import numpy as np
import pytest
from _oracles import _widened_window, per_record_p
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankbin import (
    Bin,
    NullTable,
    StopConfig,
    bin_pair,
    chi2_statistic,
    empirical_p,
    mi_statistic,
    null_quantile_curve,
    pearson_residuals,
    scan_pairs,
    simulate_null,
)
from rankbin.bins import Binning
from rankbin.ranks import RankedPair
from rankbin import engine
from rankbin.engine import BATCH
from rankbin.stats import _null_tree, empirical_ps, tree_statistics


def _toy_binning(bins, n):
    return Binning(bins=bins, score_kind="chi", stop=StopConfig(max_depth=6),
                   min_split_expected=5.0, seed=0, n=n)


def mk_bin(expected, observed, n):
    pts = np.arange(1, observed + 1)
    return Bin(0, n, 0, n, pts, pts, float(expected), 0)


def test_chi2_zero_when_all_observed_match_expected():
    b = _toy_binning([mk_bin(5, 5, 10), mk_bin(5, 5, 10)], 10)
    chi2, n_bin = chi2_statistic(b)
    assert chi2 == 0.0 and n_bin == 2


def test_chi2_two_bin_example():
    b = _toy_binning([mk_bin(5, 7, 10), mk_bin(5, 3, 10)], 10)
    chi2, n_bin = chi2_statistic(b)
    assert chi2 == pytest.approx(1.6)
    assert n_bin == 2


def test_mi_examples():
    assert mi_statistic(_toy_binning([mk_bin(5, 5, 10)], 10)) == 0.0
    single = _toy_binning([mk_bin(10, 10, 10)], 10)
    assert mi_statistic(single) == 0.0
    two = _toy_binning([mk_bin(5, 7, 10), mk_bin(5, 3, 10)], 10)
    expect = 0.7 * np.log(1.4) + 0.3 * np.log(0.6)
    assert mi_statistic(two) == pytest.approx(expect)
    assert mi_statistic(two) == pytest.approx(0.08228, abs=1e-5)


def test_pearson_residual_examples():
    b = _toy_binning([mk_bin(5, 7, 10), mk_bin(5, 3, 10), mk_bin(5, 5, 10)], 10)
    r = pearson_residuals(b)
    assert r[0] == pytest.approx(0.8944, abs=1e-4)
    assert r[1] == pytest.approx(-0.8944, abs=1e-4)
    assert r[2] == 0.0


@pytest.mark.parametrize("expected", [0.0, -2.0, float("inf"), float("nan")])
def test_statistics_refuse_an_expected_count_not_finite_and_positive(expected):
    # a zero once raised ZeroDivisionError in the residuals; a negative or
    # non-finite one gave a statistic
    b = _toy_binning([mk_bin(5, 5, 10), mk_bin(expected, 5, 10)], 10)
    for stat in (chi2_statistic, pearson_residuals):
        with pytest.raises(RuntimeError, match="expected count"):
            stat(b)


def test_squared_residuals_sum_to_chi2():
    rng = np.random.default_rng(0)
    pair = RankedPair(s=rng.permutation(800) + 1, t=rng.permutation(800) + 1, n=800)
    binning = bin_pair(pair, "chi", StopConfig(max_depth=7), 5.0, seed=1)
    chi2, _ = chi2_statistic(binning)
    r = pearson_residuals(binning)
    assert float(np.sum(r * r)) == pytest.approx(chi2, rel=1e-12)


def test_simulate_null_count_contract():
    table = simulate_null(100, [2], "chi", StopConfig(max_depth=2),
                          z=5.0, n_sim=100, seed=0)
    assert table.size == 100
    assert np.all(table.depths == 2)
    assert np.all(table.n_bins >= 1)
    assert np.all(table.chi2s >= 0)


def test_simulate_null_reproducible_and_worker_independent():
    kw = dict(n=120, depths=[2, 4], kind="random",
              stop=StopConfig(max_depth=4), z=5.0, n_sim=24, seed=9)
    a = simulate_null(**kw, workers=1)
    b = simulate_null(**kw, workers=1)
    c = simulate_null(**kw, workers=4)
    for other in (b, c):
        assert np.array_equal(a.depths, other.depths)
        assert np.array_equal(a.n_bins, other.n_bins)
        assert np.array_equal(a.chi2s, other.chi2s)


def _table(n_bins, chi2s, depths=None):
    n_bins = np.asarray(n_bins, dtype=np.int64)
    if depths is None:
        depths = np.full(n_bins.size, 2, dtype=np.int64)
    return NullTable(n=100, depths=np.asarray(depths, dtype=np.int64),
                     n_bins=n_bins, chi2s=np.asarray(chi2s, dtype=float))


def test_pool_never_outnumbers_batches(monkeypatch):
    built, batches = [], []

    class RecordingPool:
        """Records the pool size and the batch sizes, and maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            built.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            batches.append([len(b) for b in items])
            return map(fn, items)

    monkeypatch.setattr("rankbin.engine.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("rankbin.engine._WORKER_JOB", {})
    # 15 pairs of 120 rows fit in one BLOCK, which runs as one batch without
    # a pool however many workers there are
    rng = np.random.default_rng(3)
    table = {f"c{i}": rng.normal(size=120) for i in range(6)}
    null = simulate_null(120, [6], "chi", StopConfig(max_depth=6), n_sim=20, seed=1)
    scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, 0, null, workers=4)
    assert built == []
    # 2 trees fill a BLOCK and 10 a BATCH: 6 replicates over 64 workers make
    # 3 batches of 2, over 2 workers 2 batches of 3, and serially one batch;
    # trees of over half a BATCH go one per batch, so 3 of them over 2
    # workers make 3 batches
    kw = dict(depths=[4], kind="chi", stop=StopConfig(max_depth=4), seed=3)
    for n, n_sim, workers, pool, sizes in ((3000, 6, 64, [3], [[2, 2, 2]]),
                                           (3000, 6, 2, [2], [[3, 3]]),
                                           (3000, 6, 1, [], []),
                                           (BATCH // 2 + 1, 3, 2, [2], [[1, 1, 1]])):
        built.clear()
        batches.clear()
        pooled = simulate_null(n, **kw, n_sim=n_sim, workers=workers)
        assert (built, batches) == (pool, sizes)
        assert pooled.to_csv_text() == simulate_null(n, **kw, n_sim=n_sim).to_csv_text()


@pytest.mark.parametrize("kind", ["chi", "mi", "random"])
def test_tree_statistics_independent_of_batching(kind):
    # 7 trees fit in a batch: 17 trees make 3 batches, the last partly filled
    n, count, depths = BATCH // 7, 17, [0, 3, 5, 8]
    source = partial(_null_tree, n, 4)
    n_bins, chi2s = tree_statistics(source, count, n, depths, kind, 4.0, 2.0)
    for i in range(count):
        one_bins, one_chi2s = tree_statistics(lambda _, i=i: source(i), 1, n, depths,
                                              kind, 4.0, 2.0)
        assert n_bins[i].tolist() == one_bins[0].tolist()
        assert chi2s[i].view(np.int64).tolist() == one_chi2s[0].view(np.int64).tolist()


def test_empirical_p_add_one_bound():
    rng = np.random.default_rng(1)
    table = _table(np.full(9999, 40), rng.uniform(0, 50, 9999))
    p = empirical_p(table, (40, 1e9), window=2)
    assert p == pytest.approx(1 / 10_000)


def test_empirical_p_is_one_for_zero_statistic():
    table = _table(np.full(50, 10), np.linspace(0.5, 30, 50))
    assert empirical_p(table, (10, 0.0), window=2) == 1.0


def test_empirical_p_widens_until_populated():
    # observed n_bin far outside the table: the window must widen and the
    # result stay a valid probability
    table = _table(np.arange(200, 400),
                   np.linspace(1, 10, 200))
    p = empirical_p(table, (10, 5.0), window=2)
    assert 0 < p <= 1


def test_empirical_p_monotone_in_observed_statistic():
    rng = np.random.default_rng(3)
    table = _table(np.full(500, 25), rng.chisquare(24, 500))
    ps = [empirical_p(table, (25, c), window=2) for c in np.linspace(0, 80, 40)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_empirical_p_refuses_a_negative_statistic():
    table = _table(np.full(50, 10), np.linspace(0.5, 30, 50))
    for chi2 in (-1.0, -1e-300, -np.inf):
        with pytest.raises(ValueError, match="a finite chi2 >= 0"):
            empirical_p(table, (10, chi2))
    assert empirical_p(table, (10, -0.0)) == empirical_p(table, (10, 0.0)) == 1.0


def test_observed_n_bin_must_be_an_integer():
    # 3.7 was truncated to 3, and "3" read as 3
    table = _table([3, 4], [1.0, 2.0])
    for n_bin in (3.7, 3 + 2**-40, "3", np.nan, np.inf, None):
        with pytest.raises(ValueError, match="observed n_bin must be integers"):
            empirical_p(table, (n_bin, 5.0))
        with pytest.raises(ValueError, match="observed n_bin must be integers"):
            empirical_ps(table, [n_bin], [5.0])
    want = empirical_p(table, (3, 1.5))
    for n_bin in (3.0, np.int32(3), np.uint8(3), np.float32(3)):
        assert empirical_p(table, (n_bin, 1.5)) == want
        assert empirical_ps(table, [n_bin], [1.5]).tolist() == [want]


def test_null_table_columns_are_integral_arrays():
    # n_bin 3.5 was kept, and placed observations against itself
    for depths, n_bins in (([2.5], [3]), ([2], [3.5]), ([2], ["3"]), ([np.nan], [3]),
                           ([2], [2**64])):
        with pytest.raises(ValueError, match="must be integers"):
            NullTable(0, np.array(depths), np.array(n_bins), np.array([1.0]))
    # plain lists and integral floats are stored as int64 and float64 arrays
    table = NullTable(0, [2.0, 3], [3, np.int8(4)], [1, 2])
    assert table.depths.dtype == table.n_bins.dtype == np.int64
    assert table.chi2s.dtype == np.float64
    assert (table.depths.tolist(), table.n_bins.tolist(), table.chi2s.tolist()) == (
        [2, 3], [3, 4], [1.0, 2.0])
    assert empirical_p(table, (3, 1.5)) == 2 / 3


def test_empirical_p_empty_table_rejected():
    table = _table([], [])
    with pytest.raises(ValueError):
        empirical_p(table, (10, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    entries=st.lists(st.tuples(st.integers(1, 40), st.sampled_from([0.0, 1.5, 3.0, 7.25])
                               | st.floats(0, 60)), min_size=1, max_size=300),
    observed=st.lists(st.tuples(st.integers(1, 80), st.sampled_from([0.0, 1.5, 7.25])
                                | st.floats(0, 80)), min_size=1, max_size=30),
    window=st.sampled_from([0, 2, 10**9]) | st.integers(0, 50),
)
# n_bin 70 lies outside the table, 10 and 28 between its entries: each
# window holds nothing and widens, the last two to their 100th nearest entry
@example(entries=[(5, 1.0)] * 60 + [(20, 2.0)] * 120 + [(30, 3.0)],
         observed=[(70, 2.0), (10, 0.5), (28, 2.0)], window=0)
@example(entries=[(5, 1.0), (20, 2.0)], observed=[(70, 2.0), (10, 2.0)], window=2)
def test_vectorised_p_values_match_per_record_oracle(entries, observed, window):
    table = _table([nb for nb, _ in entries], [c for _, c in entries])
    n_bins = [nb for nb, _ in observed]
    chi2s = [c for _, c in observed]
    got = empirical_ps(table, n_bins, chi2s, window)
    want = np.array([per_record_p(table, o, window) for o in observed])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert [empirical_p(table, o, window) for o in observed] == want.tolist()
    if table.size >= 10:
        # the quantile curve widens through the same helper
        want_curve = {}
        for nb in np.unique(table.n_bins).tolist():
            sel = _widened_window(np.abs(table.n_bins - nb), window, 10)
            want_curve[nb] = float(np.quantile(table.chi2s[sel], 0.9))
        want_curve = dict(zip(want_curve, sorted(want_curve.values())))
        assert null_quantile_curve(table, 0.9, window, min_count=10) == want_curve


def test_vectorised_p_values_refuse_like_empirical_p():
    table = _table([3, 4], [1.0, 2.0])
    for n_bins, chi2s, window in (([3, 0], [1.0, 1.0], 2), ([3, 3], [1.0, np.nan], 2),
                                  ([3], [np.inf], 2), ([3, 3], [1.0, -2.0], 2),
                                  ([3], [1.0], -1),
                                  ([3, 10**23], [1.0, 1.0], 2)):
        with pytest.raises(ValueError):
            empirical_ps(table, n_bins, chi2s, window)
    with pytest.raises(ValueError, match="empty"):
        empirical_ps(_table([], []), [3], [1.0])


def test_quantile_curve_ordering_in_q():
    rng = np.random.default_rng(7)
    n_bins = rng.integers(20, 40, size=2000)
    chi2s = rng.chisquare(n_bins - 1)
    table = _table(n_bins, chi2s)
    q95 = null_quantile_curve(table, 0.95)
    q99 = null_quantile_curve(table, 0.99)
    assert set(q95) == set(q99)
    for nb in q95:
        assert q99[nb] > q95[nb]
    # monotone in n_bin by construction
    vals = [q99[nb] for nb in sorted(q99)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_quantile_curve_insufficient_data():
    table = _table(np.full(10, 5), np.linspace(1, 5, 10))
    with pytest.raises(ValueError):
        null_quantile_curve(table, 0.95, min_count=50)
    with pytest.raises(ValueError):
        null_quantile_curve(_table(np.full(60, 5), np.ones(60)), 0.0)
    with pytest.raises(ValueError, match="window"):
        null_quantile_curve(_table(np.full(60, 5), np.ones(60)), 0.95, window=-1)


def test_null_table_csv_round_trip(tmp_path):
    table = simulate_null(60, [2, 3], "chi", StopConfig(max_depth=3),
                          z=5.0, n_sim=5, seed=4)
    path = tmp_path / "null.csv"
    table.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "depth,n_bin,chi2"
    back = NullTable.from_csv(path)
    assert back.config is None
    assert np.array_equal(back.depths, table.depths)
    assert np.array_equal(back.n_bins, table.n_bins)
    assert np.array_equal(back.chi2s, table.chi2s)


def test_null_table_json_round_trip(tmp_path):
    table = simulate_null(60, [2], "random", StopConfig(max_depth=2),
                          z=5.0, n_sim=5, seed=4)
    path = tmp_path / "null.json"
    table.to_json(path)
    back = NullTable.from_json(path)
    assert back.config == table.config
    assert back.n == 60
    assert np.array_equal(back.chi2s, table.chi2s)


def test_null_table_csv_refuses_integers_beyond_int64(tmp_path):
    # the row's line is named, as for any other malformed row
    path = tmp_path / "null.csv"
    for row in ("2,99999999999999999999999,1.0", "99999999999999999999999,3,1.0",
                f"{2**63},3,1.0", f"6,{2**63},1.0"):
        path.write_text(f"depth,n_bin,chi2\n6,3,5\n\n{row}\n")
        with pytest.raises(ValueError, match="null.csv: line 4: .*below 2\\*\\*63"):
            NullTable.from_csv(path)
    path.write_text(f"depth,n_bin,chi2\n{2**63 - 1},{2**63 - 1},1.0\n")
    back = NullTable.from_csv(path)
    assert back.depths.tolist() == back.n_bins.tolist() == [2**63 - 1]


@pytest.mark.parametrize("workers", [0, -1])
def test_simulate_null_refuses_fewer_than_one_worker(monkeypatch, workers):
    # refused as ``rankbin scan --threads`` refuses it, before any tree grows
    def grow_levels(*args):
        raise AssertionError("a tree was grown")

    monkeypatch.setattr(engine, "grow_levels", grow_levels)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        simulate_null(50, [3], "chi", StopConfig(max_depth=3), n_sim=5, workers=workers)
