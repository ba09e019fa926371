"""Aggregate paired benchmark runs of a parent and a change into a BENCH_*.json.

Each side is a checkout in which ``benchmarks/run.py`` ran once per seed and
workload, untraced, leaving ``.bench_out/result-<workload>-seed<seed>-trace0.json``.
A pair is one seed run on both sides; the side whose result file is older
ran first.  Run from anywhere:

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --what "one line on the change" --claim bin_1e5:work_per_s --out BENCH_N.json

For every workload found on both sides the output lists, per side, the
seeds, which side ran first, every end-to-end metric of every run, failed
and attempted operations, and each metric's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``), plus the pairs the
change won on ``work_per_s`` and the ratio of its medians.  A claim
``workload:metric`` holds when the change is better on at least nine pairs
in ten and its median differs from the parent's by more than the parent's
interquartile range.  Every end-to-end metric of every workload also gets a
no-regression verdict against its ``bound`` in ``BENCHMARK.json`` (a
fraction of the parent's median): *unresolved* when the parent's
interquartile range is wider than the bound, unless every change run beats
every parent run; else *worse* when the change's median is worse than the
parent's by more than the bound, and *within bound* when not.  A ``--trace
1`` run of one seed on both sides
(``result-<workload>-seed<seed>-trace1.json``) adds both sides' per-layer
metrics under ``traces``.

Only full-profile results count: the harness's self-test writes smoke-size
results under the same names, and each one found is reported and skipped.
A side whose untraced runs measured more than one source is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
from pathlib import Path

HIGHER_IS_BETTER = {"setup_s": False, "peak_rss_mb": False, "ok_frac": True, "work_per_s": True}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
NAME = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def _runs(checkout: Path, trace: int = 0) -> dict[tuple[str, int], tuple[float, dict]]:
    """(workload, seed) -> (file mtime, result) of every full-profile run of
    a checkout, untraced or traced."""
    out = {}
    for path in sorted((checkout / ".bench_out").glob(f"result-*-trace{trace}.json")):
        m = NAME.fullmatch(path.name)
        if not m:
            continue
        result = json.loads(path.read_text())
        profile = result["provenance"]["workload"]["profile"]
        if profile != "full":
            print(f"skipped {path}: profile {profile!r}")
            continue
        out[m["workload"], int(m["seed"])] = (path.stat().st_mtime, result)
    return out


def traces(parent: Path, change: Path) -> dict[str, dict]:
    """Per workload traced on both sides: the seed and each side's per-layer
    metrics (the lowest such seed)."""
    a, b = _runs(parent, 1), _runs(change, 1)
    out = {}
    for workload, seed in sorted(a.keys() & b.keys(), reverse=True):
        out[workload] = {"seed": seed, **{side: {k: v[0] for k, v in r[1]["metrics"].items()}
                                          for side, r in (("parent", a[workload, seed]),
                                                          ("change", b[workload, seed]))}}
    return dict(sorted(out.items()))


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _side(pairs, side: int, first: list[str]) -> dict:
    results = [p[side][1] for p in pairs]
    metrics = list(results[0]["metrics"])
    runs = {k: [r["metrics"][k][0] for r in results] for k in metrics}
    return {"seeds": [p[2] for p in pairs], "first_side": first, "runs": runs,
            "failed_ops": [r["failed"] for r in results],
            "attempted_ops": [r["attempted"] for r in results],
            "summary": {k: _summary(v) for k, v in runs.items()}}


def _won(parent: list[float], change: list[float], metric: str) -> int:
    up = HIGHER_IS_BETTER.get(metric, True)
    return sum((c > p) if up else (c < p) for p, c in zip(parent, change))


def aggregate(a: dict, b: dict) -> dict[str, dict]:
    """Per workload: both sides' runs (``_runs``) over the seeds present on both."""
    out = {}
    for workload in sorted({w for w, _ in a.keys() & b.keys()}):
        pairs = [(a[k], b[k], k[1]) for k in sorted(a.keys() & b.keys()) if k[0] == workload]
        first = ["parent" if pa[0] <= pc[0] else "change" for pa, pc, _ in pairs]
        sides = {"parent": _side(pairs, 0, first), "change": _side(pairs, 1, first)}
        work = [sides[s]["runs"]["work_per_s"] for s in ("parent", "change")]
        med = [sides[s]["summary"]["work_per_s"]["median"] for s in ("parent", "change")]
        out[workload] = {**sides, "work_per_s_pairs_won": _won(*work, "work_per_s"),
                         "pairs": len(pairs), "work_per_s_median_ratio": med[1] / med[0]}
    return out


def verdict(parent: list[float], change: list[float], metric: str, bound: float) -> dict:
    """The no-regression verdict on one metric's runs, ``bound`` a fraction
    of the parent's median."""
    up = HIGHER_IS_BETTER.get(metric, True)
    p, c = _summary(parent), _summary(change)
    allowed = bound * abs(p["median"])
    worse = (p["median"] - c["median"]) if up else (c["median"] - p["median"])
    if (min(change) > max(parent)) if up else (max(change) < min(parent)):
        said = "within bound"  # every change run beats every parent run
    elif p["iqr"] > allowed:
        said = "unresolved"
    else:
        said = "worse" if worse > allowed else "within bound"
    return {"verdict": said, "bound": bound, "parent_median": p["median"],
            "change_median": c["median"], "parent_iqr": p["iqr"], "worse_by": worse}


def no_regression(workloads: dict, bounds: dict[str, float]) -> dict[str, dict]:
    """Per workload, the ``verdict`` on every end-to-end metric with a bound."""
    return {name: {m: verdict(w["parent"]["runs"][m], w["change"]["runs"][m], m, bound)
                   for m, bound in bounds.items() if m in w["parent"]["runs"]}
            for name, w in workloads.items()}


def claim(workloads: dict, spec: str) -> dict:
    """The harness rule for ``workload:metric``: at least 9 pairs in 10 won,
    and medians further apart than the parent's interquartile range."""
    workload, metric = spec.split(":")
    w = workloads[workload]
    p, c = w["parent"], w["change"]
    pm, cm = p["summary"][metric]["median"], c["summary"][metric]["median"]
    won = _won(p["runs"][metric], c["runs"][metric], metric)
    better = (cm - pm) if HIGHER_IS_BETTER.get(metric, True) else (pm - cm)
    iqr = p["summary"][metric]["iqr"]
    return {"workload": workload, "metric": metric, "parent_median": pm, "change_median": cm,
            "ratio": cm / pm, "pairs_won": won, "pairs": w["pairs"], "parent_iqr": iqr,
            "holds": won >= math.ceil(0.9 * w["pairs"]) and better > iqr}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--what", default="", help="one line saying what the change does")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the gain claimed, if any")
    ap.add_argument("--seconds", type=float, default=35, help="the runs' --seconds")
    ap.add_argument("--parent-commit", default=None)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.claim:
        workload, colon, metric = args.claim.partition(":")
        if not colon:
            ap.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC")
        if workload not in {w["name"] for w in spec["workloads"]}:
            ap.error(f"--claim: BENCHMARK.json has no workload {workload!r}")
        if metric not in bounds:
            ap.error(f"--claim: BENCHMARK.json has no end-to-end metric {metric!r}")
    runs = {side: _runs(path) for side, path in (("parent", args.parent),
                                                 ("change", args.change))}
    for side, got in runs.items():
        sources = sorted({r["provenance"]["source_sha256"] for _, r in got.values()})
        if len(sources) > 1:
            ap.error(f"the {side}'s runs measured {len(sources)} sources: {sources}")
    workloads = aggregate(runs["parent"], runs["change"])
    if not workloads:
        ap.error("no workload has runs on both sides")
    prov = next(iter(runs["change"].values()))[1]["provenance"]
    doc = {
        "what": args.what,
        "command": "python3 benchmarks/run.py --workload W --seed S --seconds T",
        "seconds": args.seconds,
        "method": ("parent and change run from separate checkouts with identical benchmarks/, "
                   "one seed per pair; first_side is the side whose result file is older; "
                   "quartiles by statistics.quantiles(n=4, method='inclusive'); "
                   "change_src_sha256 is the harness's source_sha256 of the change measured"),
        "host": {"cpus": prov["nproc"], "cpu": prov["cpu_model"], "python": prov["python"],
                 "numpy": prov["numpy"], "scipy": prov["scipy"]},
        "commit": {"parent": args.parent_commit, "change_src_sha256": prov["source_sha256"]},
        **({"claim": claim(workloads, args.claim)} if args.claim else {}),
        "no_regression": no_regression(workloads, bounds),
        "workloads": workloads,
        "traces": traces(args.parent, args.change),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, w in workloads.items():
        print(f"{name}: work_per_s median ratio {w['work_per_s_median_ratio']:.4f}, "
              f"change won {w['work_per_s_pairs_won']}/{w['pairs']} pairs")
    for name, said in doc["no_regression"].items():
        for metric, v in said.items():
            print(f"{name} {metric}: {v['verdict']} (median {v['parent_median']:.6g} -> "
                  f"{v['change_median']:.6g}, bound {v['bound']:g}, "
                  f"parent IQR {v['parent_iqr']:.6g})")
    if args.claim:
        print(f"claim {args.claim} {'holds' if doc['claim']['holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
