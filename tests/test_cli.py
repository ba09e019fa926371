import json

import numpy as np
import pytest

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
    assert not out.exists()


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
    for path, where in ((short_row, "short.csv: line 2"), (no_entries, "no_entries.json"),
                        (non_numeric, "non_numeric.csv: line 3"),
                        (out_of_range, "out_of_range.csv: line 3")):
        assert cli_main(["pvalue", "--null", str(path), "--nbin", "3",
                         "--chi2", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rankbin: data error:") and where in err
    assert cli_main(["nullsim", "--n", "1", "--sims", "5",
                     "--out", str(tmp_path / "n.csv")]) == 2
    assert capsys.readouterr().err.startswith("rankbin: data error:")
