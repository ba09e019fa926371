import numpy as np
import pytest

from rankbin import (
    IngestionError,
    NullTable,
    StopConfig,
    bottom_k,
    load_matrix,
    middle_k,
    neg_log_returns,
    records_to_csv,
    scan_pairs,
    simulate_null,
    top_k,
)
from rankbin.scan import ScanRecord


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
