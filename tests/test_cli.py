import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankbin
from rankbin.cli import cli_main
from rankbin.patterns import PatternSpec, generate, pattern_to_csv


@pytest.fixture
def line_csv(tmp_path):
    n = 300
    x = np.linspace(-1, 1, n)
    path = tmp_path / "line.csv"
    path.write_text(pattern_to_csv(x, 2.0 * x))
    return path


def test_bin_is_byte_deterministic(tmp_path, line_csv, capsys):
    args = ["bin", "--input", str(line_csv), "--score", "chi",
            "--max-depth", "6", "--seed", "7"]
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["n"] == 300 and doc["score_kind"] == "chi" and doc["seed"] == 7


def test_bin_writes_svg_plot(tmp_path, line_csv):
    out = tmp_path / "b.json"
    svg = tmp_path / "b.svg"
    code = cli_main(["bin", "--input", str(line_csv), "--out", str(out),
                     "--plot", str(svg), "--fill", "depth", "--seed", "1"])
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<?xml") and "<rect" in text


def test_nullsim_row_count_contract(tmp_path):
    out = tmp_path / "null.csv"
    code = cli_main(["nullsim", "--n", "1000", "--sims", "100",
                     "--depths", "2..10", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "depth,n_bin,chi2"
    assert len(lines) - 1 == 900


def test_pvalue_prints_one_for_zero_statistic(tmp_path, capsys):
    null = tmp_path / "null.csv"
    cli_main(["nullsim", "--n", "150", "--sims", "15", "--depths", "6",
              "--seed", "2", "--out", str(null)])
    capsys.readouterr()
    code = cli_main(["pvalue", "--null", str(null), "--nbin", "40", "--chi2", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_python_m_runs_the_cli(tmp_path, capsys):
    null = tmp_path / "null.csv"
    null.write_text("depth,n_bin,chi2\n6,3,1\n6,3,5\n")
    argv = ["pvalue", "--null", str(null), "--nbin", "3", "--chi2", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(rankbin.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "rankbin", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert cli_main(argv) == done.returncode == 0, done.stderr
    assert done.stdout == capsys.readouterr().out == "0.6666666666666666\n"
    # a usage error exits as the installed command does
    done = subprocess.run([sys.executable, "-m", "rankbin", "pvalue"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stderr.startswith("usage: rankbin pvalue")


def test_pvalue_reads_json_null_after_leading_blanks(tmp_path, capsys):
    from rankbin import StopConfig, simulate_null

    null = tmp_path / "null.json"
    simulate_null(150, [6], "chi", StopConfig(max_depth=6), n_sim=15, seed=2).to_json(null)
    args = ["pvalue", "--null", str(null), "--nbin", "20", "--chi2", "30"]
    assert cli_main(args) == 0
    plain = capsys.readouterr().out
    null.write_text(" \n\t" + null.read_text())
    assert cli_main(args) == 0
    assert capsys.readouterr().out == plain


def test_pattern_writes_csv(tmp_path):
    out = tmp_path / "wave.csv"
    code = cli_main(["pattern", "--kind", "wave", "--n", "50",
                     "--seed", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y" and len(lines) == 51
    x, y = generate(PatternSpec(kind="wave", n=50, seed=4))
    assert float(lines[1].split(",")[0]) == x[0]


def test_scan_end_to_end_with_plots(tmp_path):
    rng = np.random.default_rng(0)
    n = 150
    cols = {"a": rng.normal(size=n)}
    cols["b"] = cols["a"] + 0.1 * rng.normal(size=n)
    cols["c"] = rng.normal(size=n)
    matrix = tmp_path / "m.csv"
    rows = ["a,b,c"] + [
        f"{float(cols['a'][i])!r},{float(cols['b'][i])!r},{float(cols['c'][i])!r}"
        for i in range(n)
    ]
    matrix.write_text("\n".join(rows) + "\n")
    null = tmp_path / "null.csv"
    cli_main(["nullsim", "--n", str(n), "--sims", "30", "--depths", "6",
              "--seed", "5", "--out", str(null)])
    out = tmp_path / "scan.csv"
    plots = tmp_path / "plots"
    code = cli_main(["scan", "--input", str(matrix), "--null", str(null),
                     "--seed", "9", "--threads", "1", "--out", str(out),
                     "--plot-top", "1", "--plot-dir", str(plots)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name_a,name_b,n_bin,chi2,p_emp"
    assert len(lines) == 4
    assert lines[1].startswith("a,b,")  # the planted pair ranks first
    assert (plots / "rank01_a__b.svg").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli_main(["bogus-command"]) == 1
    assert cli_main(["bin", "--no-such-flag"]) == 1
    assert cli_main(["nullsim", "--n", "100", "--sims", "5",
                     "--depths", "x..y", "--out", "o.csv"]) == 1
    assert cli_main(["bin", "--input", "i.csv", "--out", "o.json",
                     "--seed", "-3"]) == 1
    assert cli_main([]) == 1
    # rejected before the matrix or the null table is read
    matrix, null, out = tmp_path / "m.csv", tmp_path / "null.csv", tmp_path / "s.csv"
    matrix.write_text("a,b\n" + "".join(f"{i},{i * 7 % 20}\n" for i in range(20)))
    null.write_text("depth,n_bin,chi2\n6,1,0.5\n")
    assert cli_main(["scan", "--input", str(matrix), "--null", str(null),
                     "--out", str(out), "--plot-top", "3"]) == 1
    assert "--plot-top requires --plot-dir" in capsys.readouterr().err
    for flag, value, message in (("--plot-top", "-2", "plot-top must be >= 0"),
                                 ("--threads", "-5", "threads must be >= 1"),
                                 ("--threads", "0", "threads must be >= 1")):
        assert cli_main(["scan", "--input", str(matrix), "--null", str(null),
                         "--out", str(out), "--plot-dir", str(tmp_path / "p"),
                         flag, value]) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "p").exists()


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main(["bin", "--help"]) == 0
    capsys.readouterr()


def test_data_errors_exit_2(tmp_path, capsys):
    assert cli_main(["bin", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.json")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,zap\n")
    assert cli_main(["bin", "--input", str(bad),
                     "--out", str(tmp_path / "o.json")]) == 2
    for cell in ("nan", "inf", "-inf"):
        bad.write_text(f"x,y\n1,2\n{cell},3\n")
        assert cli_main(["bin", "--input", str(bad),
                         "--out", str(tmp_path / "o.json")]) == 2
        assert "row 3, column 'x': non-finite" in capsys.readouterr().err
    # a non-finite stop threshold or split minimum
    bad.write_text("x,y\n" + "".join(f"{i},{(7 * i) % 50}\n" for i in range(50)))
    for flag in ("--min-exp", "--min-split"):
        for value in ("nan", "inf"):
            assert cli_main(["bin", "--input", str(bad), "--out", str(tmp_path / "o.json"),
                             flag, value]) == 2
            assert "must be finite" in capsys.readouterr().err
    # an x or y column dropped for a missing value is refused, not replaced by
    # the next column; a dropped third column is harmless
    for text, dropped in (("x,y,z\n,1,2\n3,4,5\n", "'x'"), ("x,y,z\n1,,2\n3,4,5\n", "'y'")):
        bad.write_text(text)
        assert cli_main(["bin", "--input", str(bad),
                         "--out", str(tmp_path / "o.json")]) == 2
        assert f"column {dropped} has missing values" in capsys.readouterr().err
    # a cell beyond csv's field size limit, in a file the loadtxt path declines
    # for its blank line, or in the header
    for text, row in (("x,y\n" + "1" * 200_001 + ",2\n\n", 2),
                      ("x" * 200_001 + ",y\n1,2\n", 1)):
        bad.write_text(text)
        assert cli_main(["bin", "--input", str(bad),
                         "--out", str(tmp_path / "o.json")]) == 2
        assert f"row {row}: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
    bad.write_text("x,y,z\n1,2,\n3,4,5\n")
    assert cli_main(["bin", "--input", str(bad), "--out", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    # scan with a null simulated under a different configuration
    matrix = tmp_path / "m.csv"
    rng = np.random.default_rng(1)
    rows = ["a,b"] + [
        f"{float(rng.normal())!r},{float(rng.normal())!r}" for _ in range(100)
    ]
    matrix.write_text("\n".join(rows) + "\n")
    null = tmp_path / "null.json"
    from rankbin import StopConfig, simulate_null

    simulate_null(100, [4], "random", StopConfig(max_depth=4),
                  n_sim=10, seed=1).to_json(null)
    assert cli_main(["scan", "--input", str(matrix), "--null", str(null),
                     "--score", "chi", "--max-depth", "6",
                     "--out", str(tmp_path / "s.csv")]) == 2
    capsys.readouterr()
    # a null simulated for another n, with a configuration that matches
    simulate_null(50, [6], "chi", StopConfig(max_depth=6),
                  n_sim=20, seed=1).to_json(null)
    assert cli_main(["scan", "--input", str(matrix), "--null", str(null),
                     "--score", "chi", "--max-depth", "6",
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "n=50" in capsys.readouterr().err
    # a negative window, refused before any pair is binned
    simulate_null(100, [6], "chi", StopConfig(max_depth=6),
                  n_sim=20, seed=1).to_json(null)
    assert cli_main(["scan", "--input", str(matrix), "--null", str(null),
                     "--score", "chi", "--max-depth", "6", "--window", "-1",
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "window must be >= 0" in capsys.readouterr().err
    # a matrix with a header and no rows, against a bare CSV null
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("a,b,c\n")
    null_csv = tmp_path / "null.csv"
    simulate_null(100, [6], "chi", StopConfig(max_depth=6),
                  n_sim=20, seed=1).to_csv(null_csv)
    assert cli_main(["scan", "--input", str(header_only), "--null", str(null_csv),
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "at least 1 row" in capsys.readouterr().err
    # bytes that are not UTF-8 name the file, for bin and for scan
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes(b"x,y\n1,2\n3,4\n5,\xff\n")
    for argv in (["bin", "--out", str(tmp_path / "u.json")],
                 ["scan", "--null", str(null_csv), "--out", str(tmp_path / "s.csv")]):
        assert cli_main(argv + ["--input", str(not_utf8)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rankbin: data error:") and "latin1.csv: not UTF-8" in err
    assert not (tmp_path / "u.json").exists()
    # a config that is not an object, and config depths that are not a list
    for name, config in (("list_config.json", "[1]"),
                         ("int_depths.json", '{"kind": "chi", "depths": 6}')):
        (tmp_path / name).write_text(f'{{"n": 100, "config": {config}, "entries": []}}')
        assert cli_main(["scan", "--input", str(matrix), "--null", str(tmp_path / name),
                         "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rankbin: data error:") and name in err
    assert not (tmp_path / "s.csv").exists()
    # malformed null tables: a short CSV row, a JSON document without
    # entries, a non-numeric cell and an out-of-range row (after a blank line)
    short_row = tmp_path / "short.csv"
    short_row.write_text("depth,n_bin,chi2\n1,2\n")
    no_entries = tmp_path / "no_entries.json"
    no_entries.write_text('{"n": 5}')
    non_numeric = tmp_path / "non_numeric.csv"
    non_numeric.write_text("depth,n_bin,chi2\n1,2,3\n1,2,x\n")
    out_of_range = tmp_path / "out_of_range.csv"
    out_of_range.write_text("depth,n_bin,chi2\n\n1,0,3\n")
    # and JSON tables whose n is negative, a fraction or a string
    bad_n = {"negative_n.json": "-5", "frac_n.json": "200.7", "string_n.json": '"200"'}
    for name, n in bad_n.items():
        (tmp_path / name).write_text(f'{{"n": {n}, "entries": [[6, 3, 5], [6, 3, 7]]}}')
    for path, where in ((short_row, "short.csv: line 2"), (no_entries, "no_entries.json"),
                        (non_numeric, "non_numeric.csv: line 3"),
                        (out_of_range, "out_of_range.csv: line 3"),
                        *((tmp_path / name, name) for name in bad_n)):
        assert cli_main(["pvalue", "--null", str(path), "--nbin", "3",
                         "--chi2", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rankbin: data error:") and where in err
    # a non-finite null entry, which no observed value can reach
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("depth,n_bin,chi2\n6,3,nan\n6,3,5\n")
    inf_csv = tmp_path / "inf.csv"
    inf_csv.write_text("depth,n_bin,chi2\n6,3,5\n6,3,inf\n")
    nan_json = tmp_path / "nan.json"
    nan_json.write_text('{"n": 5, "entries": [[6, 3, NaN], [6, 3, 5]]}')
    # a depth that is not a number and an n_bin that is not an integer
    nan_depth = tmp_path / "nan_depth.json"
    nan_depth.write_text('{"n": 5, "entries": [[NaN, 3, 5], [6, 3, 5]]}')
    frac_nbin = tmp_path / "frac_nbin.json"
    frac_nbin.write_text('{"n": 5, "entries": [[6, 3, 5], [6, 3.7, 5]]}')
    for path, where in ((nan_csv, "nan.csv: line 2"), (inf_csv, "inf.csv: line 3"),
                        (nan_json, "nan.json"), (nan_depth, "nan_depth.json"),
                        (frac_nbin, "frac_nbin.json")):
        assert cli_main(["pvalue", "--null", str(path), "--nbin", "3",
                         "--chi2", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rankbin: data error:") and where in err
    # a depth or an n_bin beyond int64 in a CSV null, for pvalue and scan
    for name, row in (("huge_nbin.csv", "2,99999999999999999999999,1.0"),
                      ("huge_depth.csv", "99999999999999999999999,3,1.0")):
        (tmp_path / name).write_text(f"depth,n_bin,chi2\n6,3,5\n{row}\n")
        for argv in (["pvalue", "--nbin", "3", "--chi2", "1"],
                     ["scan", "--input", str(matrix), "--out", str(tmp_path / "s.csv")]):
            assert cli_main(argv + ["--null", str(tmp_path / name)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("rankbin: data error:") and f"{name}: line 3" in err
    assert not (tmp_path / "s.csv").exists()
    # an observed pair or a window that empirical_p cannot place
    good = tmp_path / "good.csv"
    good.write_text("depth,n_bin,chi2\n6,3,1\n6,3,5\n")
    for extra in (["--nbin", "3", "--chi2", "nan"], ["--nbin", "3", "--chi2", "inf"],
                  ["--nbin", "3", "--chi2", "1", "--window", "-5"],
                  ["--nbin", "-7", "--chi2", "1"], ["--nbin", "0", "--chi2", "1"],
                  ["--nbin", "100000000000000000000000", "--chi2", "1"]):
        assert cli_main(["pvalue", "--null", str(good)] + extra) == 2
        assert capsys.readouterr().err.startswith("rankbin: data error:")
    # a negative statistic, which no null entry can take; either zero is one
    assert cli_main(["pvalue", "--null", str(good), "--nbin", "3", "--chi2", "-1"]) == 2
    assert "a finite chi2 >= 0" in capsys.readouterr().err
    for zero in ("0", "-0.0"):
        assert cli_main(["pvalue", "--null", str(good), "--nbin", "3", "--chi2", zero]) == 0
        assert capsys.readouterr().out == "1.0\n"
    assert cli_main(["nullsim", "--n", "1", "--sims", "5",
                     "--out", str(tmp_path / "n.csv")]) == 2
    assert capsys.readouterr().err.startswith("rankbin: data error:")
    # a pattern with non-finite noise
    assert cli_main(["pattern", "--kind", "wave", "--n", "3", "--noise", "nan",
                     "--out", str(tmp_path / "p.csv")]) == 2
    assert "noise must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()
