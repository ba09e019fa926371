import numpy as np
import pytest

from rankbin import (
    IngestionError,
    NullTable,
    StopConfig,
    bin_pair,
    bottom_k,
    load_matrix,
    middle_k,
    neg_log_returns,
    records_to_csv,
    scan_pairs,
    simulate_null,
    top_k,
)
from rankbin import binning_to_json, engine, plaincsv, scan
from rankbin.ranks import RankedPair
from rankbin.engine import BATCH
from rankbin.scan import ScanRecord, pair_binnings

from _oracles import per_pair_scan


def _write(tmp_path, text, name="m.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_matrix_complete_columns(tmp_path):
    path = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
    table = load_matrix(path)
    assert list(table) == ["a", "b", "c"]
    assert table["b"].tolist() == [2.0, 5.0]


def test_load_matrix_drops_incomplete_with_warning(tmp_path, caplog):
    path = _write(tmp_path, "a,b,c,d\n1,2,,4\n5,6,7,8\n")
    with caplog.at_level("WARNING"):
        table = load_matrix(path)
    assert list(table) == ["a", "b", "d"]
    assert any("'c'" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("body, kept", [
    ("1,,3\n4,5,6\n", ["a", "c"]),        # between commas
    ("1,2,3\n4,5,\n", ["a", "b"]),        # at the end of the last row
    (",2,3\n4,5,6\n", ["b", "c"]),        # at the start of the first row
    ("1,2,3\r\n4,5,\r\n", ["a", "b"]),    # before CRLF
    ("1,2,3\r,5,6\r", ["b", "c"]),        # after CR
])
def test_load_matrix_missing_cell_skips_loadtxt(tmp_path, monkeypatch, caplog, body, kept):
    calls = []
    parse = plaincsv._parse_fields
    monkeypatch.setattr(plaincsv, "_parse_fields",
                        lambda *a, **k: calls.append(a) or parse(*a, **k))
    path = tmp_path / "m.csv"
    path.write_bytes(f"a,b,c\n{body}".encode())
    with caplog.at_level("WARNING"):
        assert list(load_matrix(path)) == kept
    assert calls == [] and "dropping column" in caplog.text
    load_matrix(_write(tmp_path, "a,b\n1,2\n", name="plain.csv"))
    assert len(calls) == 1


def test_load_matrix_duplicate_names(tmp_path):
    path = _write(tmp_path, "a,b,a\n1,2,3\n")
    with pytest.raises(IngestionError, match="duplicate"):
        load_matrix(path)


def test_load_matrix_non_numeric_names_row_and_column(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,oops\n")
    with pytest.raises(IngestionError, match=r"row 3, column 'b'"):
        load_matrix(path)


def test_load_matrix_ragged_row(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(IngestionError, match="row 3"):
        load_matrix(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity", "NaN"])
def test_load_matrix_non_finite_names_row_and_column(tmp_path, cell):
    path = _write(tmp_path, f"a,b,c\n1,2,3\n4,5,6\n7,{cell},9\n")
    with pytest.raises(IngestionError, match=r"row 4, column 'b': non-finite"):
        load_matrix(path)


def test_load_matrix_unreadable(tmp_path):
    with pytest.raises(IngestionError):
        load_matrix(tmp_path / "missing.csv")


@pytest.mark.parametrize("text", [
    b"x,y\n1,2\n3,4\n5,\xff\n",                           # in a cell
    b"x,\xe9\n1,2\n",                                     # in the header
    b"x,y\n" + b"0.5,1.25\n" * 40_000 + b"\xff,1\n",      # in a later block
])
def test_load_matrix_names_a_file_that_is_not_utf8(tmp_path, text):
    path = tmp_path / "latin1.csv"
    path.write_bytes(text)
    with pytest.raises(IngestionError, match=r"latin1\.csv: not UTF-8 text \(invalid"):
        load_matrix(path)


def test_neg_log_returns_examples():
    assert neg_log_returns([100.0, 100.0]).tolist() == [0.0]
    got = neg_log_returns([100.0, 110.0])
    assert got[0] == pytest.approx(-0.09531, abs=1e-5)
    series = np.linspace(10, 20, 756)
    assert neg_log_returns(series).size == 755


def test_neg_log_returns_errors():
    with pytest.raises(ValueError):
        neg_log_returns([100.0])
    with pytest.raises(ValueError):
        neg_log_returns([100.0, -1.0])
    with pytest.raises(ValueError):
        neg_log_returns([100.0, 0.0])


def _null(n, seed=0, kind="chi", depth=6):
    return simulate_null(n, [depth], kind, StopConfig(max_depth=depth),
                         z=5.0, n_sim=60, seed=seed)


def test_scan_three_columns_three_records():
    rng = np.random.default_rng(0)
    n = 200
    table = {k: rng.normal(size=n) for k in ("a", "b", "c")}
    null = _null(n)
    records = scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, 1, null)
    assert len(records) == 3
    assert {(r.name_a, r.name_b) for r in records} == {
        ("a", "b"), ("a", "c"), ("b", "c")
    }
    # sorted by descending statistic
    chis = [r.chi2 for r in records]
    assert chis == sorted(chis, reverse=True)


def test_identical_columns_outrank_noise():
    rng = np.random.default_rng(1)
    n = 300
    shared = rng.normal(size=n)
    table = {"dup1": shared, "dup2": shared.copy()}
    for i in range(6):
        table[f"n{i}"] = rng.normal(size=n)
    null = _null(n, seed=3)
    records = scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, 2, null)
    assert (records[0].name_a, records[0].name_b) == ("dup1", "dup2")
    assert records[0].chi2 > 3 * records[1].chi2


def test_independent_columns_rarely_significant():
    # two-column scans across 100 seeds: p > 0.05 at least 90 times
    n = 150
    null = _null(n, seed=11)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        table = {"u": rng.normal(size=n), "v": rng.normal(size=n)}
        rec = scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, seed, null)[0]
        hits += rec.p_emp > 0.05
    assert hits >= 90


def test_scan_rejects_mismatched_null_config():
    rng = np.random.default_rng(2)
    table = {"a": rng.normal(size=100), "b": rng.normal(size=100)}
    null = _null(100, kind="chi", depth=6)
    with pytest.raises(ValueError, match="mismatch"):
        scan_pairs(table, "random", StopConfig(max_depth=6), 5.0, 0, null)
    with pytest.raises(ValueError, match="mismatch"):
        scan_pairs(table, "chi", StopConfig(max_depth=4), 5.0, 0, null)
    with pytest.raises(ValueError, match="mismatch"):
        scan_pairs(table, "chi", StopConfig(max_depth=6), 7.0, 0, null)
    # a table simulated for another n, its configuration matching in full
    with pytest.raises(ValueError, match="n=50"):
        scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, 0, _null(50, depth=6))
    # empty bins always stop; a table simulated without that rule is refused
    other = NullTable(n=null.n, depths=null.depths, n_bins=null.n_bins,
                      chi2s=null.chi2s, config={**null.config, "stop_empty": False})
    with pytest.raises(ValueError, match="stop_empty"):
        scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, 0, other)


def _records(n):
    return [
        ScanRecord(f"a{i}", f"b{i}", 10, float(100 - i), 0.01 * (i + 1))
        for i in range(n)
    ]


def test_rank_position_subsets():
    recs = _records(5)
    assert top_k(recs, 2) == recs[:2]
    assert bottom_k(recs, 2) == recs[3:]
    assert middle_k(recs, 1) == [recs[2]]
    assert middle_k(recs, 3) == recs[1:4]
    with pytest.raises(ValueError):
        top_k(recs, 6)


def test_records_csv_format():
    recs = [
        ScanRecord("aa", "bb", 40, 123.456789012345, 1 / 3),
        ScanRecord("cc", "dd", 41, 23.5, 1.0),
    ]
    text = records_to_csv(recs)
    lines = text.strip().splitlines()
    assert lines[0] == "name_a,name_b,n_bin,chi2,p_emp"
    assert lines[1] == "aa,bb,40,123.456789,0.3333333333"
    assert lines[2] == "cc,dd,41,23.5,1"


def test_scan_deterministic_across_workers():
    rng = np.random.default_rng(5)
    n = 120
    table = {f"c{i}": rng.normal(size=n) for i in range(6)}
    null = _null(n, seed=6)
    kw = dict(kind="chi", stop=StopConfig(max_depth=6), z=5.0,
              base_seed=17, null=null)
    serial = scan_pairs(table, **kw, workers=1)
    parallel = scan_pairs(table, **kw, workers=4)
    assert records_to_csv(serial) == records_to_csv(parallel)


def test_scan_deterministic_across_workers_and_batches():
    # 4 trees per batch: 15 pairs make 4 batches, the last partly filled
    rng = np.random.default_rng(8)
    n = BATCH // 4
    table = {f"c{i}": rng.normal(size=n) for i in range(6)}
    null = _null(n, seed=9)
    kw = dict(kind="chi", stop=StopConfig(max_depth=6), z=5.0,
              base_seed=23, null=null)
    serial = records_to_csv(scan_pairs(table, **kw, workers=1))
    for workers in (2, 4):
        assert records_to_csv(scan_pairs(table, **kw, workers=workers)) == serial


def test_scan_checks_window_before_growing_trees(monkeypatch):
    rng = np.random.default_rng(4)
    table = {"a": rng.normal(size=100), "b": rng.normal(size=100)}
    null = _null(100)

    def grown(*args, **kwargs):
        raise AssertionError("a tree was grown")

    monkeypatch.setattr("rankbin.scan.tree_statistics", grown)
    with pytest.raises(ValueError, match="window"):
        scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, 0, null, window=-1)
    ragged = {**table, "c": rng.normal(size=99), "d": rng.normal(size=98)}
    with pytest.raises(ValueError, match="column 'c' has 99 rows"):
        scan_pairs(ragged, "chi", StopConfig(max_depth=6), 5.0, 0, null)
    with pytest.raises(ValueError, match="column 'c' has 99 rows"):
        pair_binnings(ragged, [("a", "c")], "chi", StopConfig(max_depth=6), 5.0, 0)
    with pytest.raises(AssertionError, match="grown"):
        scan_pairs(table, "chi", StopConfig(max_depth=6), 5.0, 0, null, window=0)


def test_internally_built_pairs_skip_the_permutation_check(monkeypatch):
    calls = []
    check = RankedPair.__post_init__
    monkeypatch.setattr(RankedPair, "__post_init__",
                        lambda self: calls.append(1) or check(self))
    rng = np.random.default_rng(12)
    table = {f"c{i}": rng.normal(size=80) for i in range(4)}
    null = _null(80, depth=4)  # simulate_null
    scan_pairs(table, "chi", StopConfig(max_depth=4), 5.0, 3, null)
    assert calls == []
    RankedPair(s=np.arange(1, 4), t=np.arange(1, 4), n=3)
    assert calls == [1]


def test_growth_arguments_checked_once_per_entry_point(monkeypatch):
    calls = []
    check = engine.check_growth_args
    monkeypatch.setattr(engine, "check_growth_args",
                        lambda *args: calls.append(1) or check(*args))
    rng = np.random.default_rng(13)
    table = {f"c{i}": rng.normal(size=60) for i in range(3)}
    stop = StopConfig(max_depth=4)
    pair = RankedPair(s=np.arange(1, 61), t=rng.permutation(60) + 1, n=60)
    null = simulate_null(60, [2, 4], "chi", stop, n_sim=5)
    for call in (lambda: bin_pair(pair, "chi", stop),
                 lambda: engine.bin_pair_by_depth(pair, "chi", [2, 4], stop),
                 lambda: simulate_null(60, [2, 4], "chi", stop, n_sim=5),
                 lambda: scan_pairs(table, "chi", stop, 5.0, 0, null),
                 lambda: pair_binnings(table, [("c0", "c1"), ("c1", "c2")], "chi", stop,
                                       5.0, 0)):
        calls.clear()
        call()
        assert calls == [1]


@pytest.mark.parametrize("kind", ["chi", "random"])
def test_batched_rebuild_matches_one_pair_at_a_time(kind):
    # 55 pairs of 755 rows hold more points than one BATCH, so "all pairs"
    # grows in two batches; pairs share columns whatever K is
    rng = np.random.default_rng(31)
    n = 755
    table = {f"c{i}": rng.normal(size=n) for i in range(11)}
    table["c1"] = table["c0"] + 0.3 * rng.normal(size=n)
    table["c5"] = np.round(table["c5"], 1)  # ties: ranks use the tie-break draws
    stop, z, seed = StopConfig(max_depth=6), 5.0, 41
    names = list(table)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    assert len(pairs) * n > BATCH
    one = [binning_to_json(pair_binnings(table, [p], kind, stop, z, seed)[0]) for p in pairs]
    for k in (0, 1, 7, len(pairs)):
        chosen = pairs[len(pairs) - k:][::-1]  # any order, not the scan's
        got = pair_binnings(table, chosen, kind, stop, z, seed)
        assert [binning_to_json(b) for b in got] == [one[pairs.index(p)] for p in chosen]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tie_free_non_finite_column_is_refused(bad):
    rng = np.random.default_rng(14)
    n, stop = 80, StopConfig(max_depth=4)
    table = {f"c{i}": rng.normal(size=n) for i in range(3)}
    table["c1"][7] = bad  # no value of c1 ties
    with pytest.raises(ValueError, match="cannot rank non-finite values"):
        scan_pairs(table, "chi", stop, 5.0, 0, _null(n, depth=4))
    with pytest.raises(ValueError, match="cannot rank non-finite values"):
        pair_binnings(table, [("c0", "c1")], "chi", stop, 5.0, 0)
    # a column no named pair holds is not ranked, so not refused
    assert len(pair_binnings(table, [("c0", "c2")], "chi", stop, 5.0, 0)) == 1


def test_pair_binnings_refuses_a_table_without_rows():
    table = {"a": np.array([]), "b": np.array([])}
    with pytest.raises(ValueError, match="cannot rank an empty sequence"):
        pair_binnings(table, [("a", "b")], "chi", StopConfig(max_depth=4), 5.0, 0)


def _stream_use(monkeypatch, table):
    """Record the column of every sample check in ``scan`` and the entropy
    and spawn key of every ``substreams.stream`` it builds; returns both lists."""
    checked, built = [], []
    sample, stream = scan._sample, scan.stream

    def counted_sample(values):
        checked.append(next(k for k, col in table.items() if col is values))
        return sample(values)

    def counted_stream(*entropy, spawn_key=()):
        built.append((entropy, spawn_key))
        return stream(*entropy, spawn_key=spawn_key)

    monkeypatch.setattr(scan, "_sample", counted_sample)
    monkeypatch.setattr(scan, "stream", counted_stream)
    return checked, built


def test_tie_free_columns_are_ranked_once_per_call(monkeypatch):
    rng = np.random.default_rng(15)
    n, stop = 80, StopConfig(max_depth=4)
    table = {f"c{i}": rng.normal(size=n) for i in range(5)}
    null = _null(n, depth=4)
    checked, built = _stream_use(monkeypatch, table)
    scan_pairs(table, "chi", stop, 5.0, 3, null)
    assert sorted(checked) == list(table) and built == []
    checked.clear()
    pair_binnings(table, [("c0", "c1"), ("c3", "c0"), ("c1", "c3")], "chi", stop, 5.0, 3)
    assert sorted(checked) == ["c0", "c1", "c3"] and built == []


def test_tied_column_is_ranked_per_pair_from_its_stream(monkeypatch):
    rng = np.random.default_rng(16)
    n, stop, seed = 80, StopConfig(max_depth=4), 3
    table = {f"c{i}": rng.normal(size=n) for i in range(5)}
    table["c2"] = np.round(table["c2"], 1)
    null = _null(n, depth=4)
    checked, built = _stream_use(monkeypatch, table)
    scan_pairs(table, "chi", stop, 5.0, seed, null)
    # c2 is the first column of pairs (2, 3) and (2, 4), the second of (0, 2) and (1, 2)
    assert sorted(built) == [((seed, 0, 2), (1,)), ((seed, 1, 2), (1,)),
                             ((seed, 2, 3), (0,)), ((seed, 2, 4), (0,))]
    # and is checked once, as every other column is
    assert sorted(checked) == list(table)


@pytest.mark.parametrize("tie", ["signed_zero", "one_repeat"])
def test_barely_tied_columns_take_the_per_pair_path(monkeypatch, tie):
    rng = np.random.default_rng(17)
    n, stop, seed = 80, StopConfig(max_depth=4), 5
    table = {f"c{i}": rng.normal(size=n) for i in range(4)}
    if tie == "signed_zero":
        table["c1"][[10, 50]] = [0.0, -0.0]
    else:
        table["c1"][10] = table["c1"][50]
    null = _null(n, depth=4)
    want = per_pair_scan(table, "chi", stop, 5.0, seed, null)
    _, built = _stream_use(monkeypatch, table)
    got = scan_pairs(table, "chi", stop, 5.0, seed, null)
    assert got == want
    # c1 is the second column of pair (0, 1), the first of (1, 2) and (1, 3)
    assert sorted(built) == [((seed, 0, 1), (1,)), ((seed, 1, 2), (0,)),
                             ((seed, 1, 3), (0,))]


def test_shared_ranks_are_read_only():
    rng = np.random.default_rng(18)
    cols = [rng.normal(size=50), np.round(rng.normal(size=50), 1)]
    source = scan._pair_source(cols, [(0, 1)], 7)
    pair, _ = source(0)
    again, _ = source(0)
    # the tie-free column's ranks are shared, the tied one's ranked per call
    assert pair.s is again.s and pair.t is not again.t
    assert pair.t.tobytes() == again.t.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        pair.s[0] = 1


def test_each_column_is_sorted_once_and_a_tie_free_one_never_again(monkeypatch):
    rng = np.random.default_rng(20)
    cols = [rng.normal(size=60), np.round(rng.normal(size=60), 1), rng.normal(size=60)]
    kinds = []
    argsort, sort = np.argsort, np.sort

    def counted_argsort(a, *args, kind=None, **kwargs):
        kinds.append(kind)
        return argsort(a, *args, kind=kind, **kwargs)

    def counted_sort(*args, **kwargs):
        kinds.append("sort")
        return sort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted_argsort)
    monkeypatch.setattr(np, "sort", counted_sort)
    source = scan._pair_source(cols, [(0, 1), (0, 2), (1, 2)], 4)
    assert kinds == [None, None, None]
    kinds.clear()
    for i in range(3):
        source(i)
    # only the tied column is sorted again, by each of its two pairs
    assert kinds == ["stable", "stable"]


def test_a_column_that_is_not_one_dimensional_is_refused():
    table = {"a": np.arange(4.0).reshape(2, 2), "b": np.arange(4.0)}
    with pytest.raises(ValueError, match="one-dimensional"):
        pair_binnings(table, [("a", "b")], "chi", StopConfig(max_depth=2), 5.0, 0)


@pytest.mark.parametrize("workers", [0, -1])
def test_scan_refuses_fewer_than_one_worker(monkeypatch, workers):
    # refused as ``rankbin scan --threads`` refuses it, before any tree grows
    rng = np.random.default_rng(19)
    table = {f"c{i}": rng.normal(size=40) for i in range(3)}
    null = _null(40, depth=3)

    def grow_levels(*args):
        raise AssertionError("a tree was grown")

    monkeypatch.setattr(engine, "grow_levels", grow_levels)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        scan_pairs(table, "chi", StopConfig(max_depth=3), 5.0, 0, null, workers=workers)
