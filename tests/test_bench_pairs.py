"""``scripts/bench_pairs.py`` on synthetic result files of two checkouts."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(checkout, workload, seed, work, mtime, trace=0, profile="full", source=None):
    source = source or checkout.name  # each side its own source, unless given
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"result-{workload}-seed{seed}-trace{trace}.json"
    metrics = ({"engine.self_ms": [work, "ms", 3]} if trace else
               {"setup_s": [0.1, "s", 3], "peak_rss_mb": [50.0, "MB", 1],
                "ok_frac": [1.0, "frac", 9], "work_per_s": [work, "1/s", 9]})
    prov = {"nproc": 2, "cpu_model": "cpu", "python": "3", "numpy": "2", "scipy": "1",
            "source_sha256": source, "workload": {"profile": profile}}
    path.write_text(json.dumps({"metrics": metrics, "failed": 0, "attempted": 9,
                                "provenance": prov}))
    os.utime(path, (mtime, mtime))


PARENT = [95, 105, 97, 103, 99, 101, 96, 104, 98, 102]  # median 100, IQR 5.5


@pytest.mark.parametrize("gain, holds", [
    ([15] * 10, True),
    # one pair lost in ten still holds; two do not
    ([15] * 9 + [-1], True),
    ([15] * 8 + [-1, -1], False),
    # every pair won, by less than the parent's spread
    ([2] * 10, False),
])
def test_pairs_are_aggregated_and_the_claim_judged(tmp_path, gain, holds):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent_work, change_work = PARENT, [p + g for p, g in zip(PARENT, gain)]
    for i, (p, c) in enumerate(zip(parent_work, change_work)):
        # the first side alternates from pair to pair
        _result(parent, "bin_1e5", 300 + i, p, 1000 + 10 * i + i % 2)
        _result(change, "bin_1e5", 300 + i, c, 1000 + 10 * i + 1 - i % 2)
    _result(parent, "null_sim", 1, 5.0, 0)  # on one side only: left out
    _result(parent, "bin_1e5", 0, 20.0, 0, trace=1)
    _result(change, "bin_1e5", 0, 15.0, 0, trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--claim", "bin_1e5:work_per_s", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["bin_1e5"]
    w = doc["workloads"]["bin_1e5"]
    assert w["pairs"] == 10 and w["parent"]["seeds"] == list(range(300, 310))
    assert w["parent"]["first_side"][:2] == ["parent", "change"]
    assert w["change"]["runs"]["work_per_s"] == change_work
    assert w["parent"]["summary"]["work_per_s"]["median"] == 100
    assert w["parent"]["summary"]["work_per_s"]["iqr"] == 5.5
    assert doc["claim"]["holds"] is holds
    assert doc["traces"] == {"bin_1e5": {"seed": 0, "parent": {"engine.self_ms": 20.0},
                                         "change": {"engine.self_ms": 15.0}}}
    assert doc["claim"]["pairs_won"] == sum(c > p for p, c in zip(parent_work, change_work))


def test_smoke_results_are_skipped(tmp_path, capsys):
    # the harness's self-test rewrites seed 0's results, traced ones too,
    # at smoke size: they are reported and left out, and the traces fall to
    # the next seed traced on both sides
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, work in ((parent, 100.0), (change, 110.0)):
        for seed in (0, 1, 2):
            _result(side, "null_sim", seed, work, 1000 + seed)
            _result(side, "null_sim", seed, work, 1000 + seed, trace=1)
        _result(side, "null_sim", 0, 9.0, 2000, profile="smoke")
        _result(side, "null_sim", 0, 9.0, 2000, trace=1, profile="smoke")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    skipped = [line for line in printed.splitlines() if line.startswith("skipped ")]
    assert len(skipped) == 4 and all(line.endswith("profile 'smoke'") for line in skipped)
    doc = json.loads(out.read_text())
    w = doc["workloads"]["null_sim"]
    assert w["pairs"] == 2 and w["change"]["seeds"] == [1, 2]
    assert w["change"]["runs"]["work_per_s"] == [110.0, 110.0]
    assert doc["traces"]["null_sim"]["seed"] == 1
    assert doc["traces"]["null_sim"]["change"] == {"engine.self_ms": 110.0}


def test_a_side_of_two_sources_is_refused(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _result(parent, "bin_1e5", seed, 100.0, 1000 + seed)
        _result(change, "bin_1e5", seed, 100.0, 1000 + seed, source="ab" if seed == 1 else "cd")
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--out", str(tmp_path / "BENCH.json")])
    assert "the change's runs measured 2 sources" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()


def test_one_source_on_both_sides_is_refused(tmp_path, capsys):
    # one checkout passed twice would compare a tree with itself
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _result(parent, "bin_1e5", seed, 100.0, 1000 + seed, source="ab")
        _result(change, "bin_1e5", seed, 100.0, 2000 + seed, source="ab")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--out", str(tmp_path / "BENCH.json")])
    assert exc.value.code == 2
    assert "the parent and the change measured the same source" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize("parent_work, shift, said", [
    # 10% slower against a 25% bound, the parent's IQR 5.5 well inside it
    (PARENT, -10, "within bound"),
    (PARENT, -40, "worse"),
    # a parent IQR of 27.5 is wider than 25% of its median, 100: no verdict
    ([5 * p - 400 for p in PARENT], -10, "unresolved"),
    # ...unless every change run beats every parent run
    ([5 * p - 400 for p in PARENT], 200, "within bound"),
])
def test_every_end_to_end_metric_gets_a_no_regression_verdict(tmp_path, parent_work, shift,
                                                               said):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, p in enumerate(parent_work):
        _result(parent, "null_sim", 10 + i, p, 1000 + i)
        _result(change, "null_sim", 10 + i, p + shift, 2000 + i)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out)]) == 0
    verdicts = json.loads(out.read_text())["no_regression"]["null_sim"]
    # the bounds are BENCHMARK.json's; the other metrics are equal on both sides
    assert {m: v["bound"] for m, v in verdicts.items()} == {
        "setup_s": 0.25, "peak_rss_mb": 0.2, "ok_frac": 0.01, "work_per_s": 0.25}
    assert verdicts.pop("work_per_s")["verdict"] == said
    assert {v["verdict"] for v in verdicts.values()} == {"within bound"}


@pytest.mark.parametrize("spec, why", [
    ("scan_cli", "not WORKLOAD:METRIC"),
    ("foo:work_per_s", "no workload 'foo'"),
    ("scan_cli:bar", "no end-to-end metric 'bar'"),
    ("scan_cli:work_per_s:x", "no end-to-end metric 'work_per_s:x'"),
])
def test_a_bad_claim_is_refused_before_any_run_is_read(tmp_path, capsys, spec, why):
    # neither checkout exists: the spec is checked against BENCHMARK.json first
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--claim", spec,
                          "--out", str(tmp_path / "BENCH.json")])
    assert exc.value.code == 2
    assert why in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()
