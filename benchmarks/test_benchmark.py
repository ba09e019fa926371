"""Self-test of the benchmark at smoke size.

    python3 -m pytest -q benchmarks

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the output check fires on a corrupted byte, and that traced runs give
the untraced run's output digests and repeat their work counts exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _cli(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--profile", "smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    stdout, last = _cli(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        line = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+n=\d+$"
        assert re.search(line, stdout, re.M), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_byte_counts_as_failed(workload):
    result = run.run_benchmark(workload, 0, 0.1, 0, "smoke", corrupt_op=0)
    assert result["reference_used"]
    assert result["failed"] >= 1
    assert result["named"]["failed_frac"][0] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digests_and_counts_repeat(workload):
    plain = run.run_benchmark(workload, 0, 0.1, 0, "smoke")
    traced = [run.run_benchmark(workload, 0, 0.1, 1, "smoke") for _ in range(2)]
    for r in traced:
        assert r["correct"] and r["digests"] == plain["digests"]
    counts = [{k: v for k, (v, unit, _) in r["metrics"].items()
               if unit in ("count", "bytes")} for r in traced]
    assert counts[0] == counts[1]
    assert counts[0]["output.bytes"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for p in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / p.name).write_bytes(p.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "null_sim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
