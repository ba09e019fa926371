"""The benchmark's three workloads: inputs from a seed, one operation, checks.

Each workload builds its inputs from the seed alone, runs one operation per
call of ``run(variant)`` and returns the operation's user-visible output
bytes by name, plus the units of work the operation did.  ``problems``
checks one output set structurally, which is what stands in for the
recorded byte digests on seeds and sizes that have none.

All three run in one process with ``workers=1`` / ``--threads 1``.  They
load the engine's per-node overhead, its per-point work and its I/O layers
each heavily in one workload and lightly in another, so a later change shows
its gain where its mechanism runs and no change where it does not.

Every call into rankbin goes through a module attribute (``stats.simulate_null``,
``cli.cli_main``) so that wrappers installed by the tracer see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from rankbin import cli, patterns, stats
from rankbin.bins import StopConfig

PLANTED = ((0, 1), (2, 3), (4, 5))


def _sizes(profile: str, full: dict, smoke: dict) -> dict:
    if profile not in ("full", "smoke"):
        raise ValueError(f"unknown profile {profile!r}")
    return dict(full if profile == "full" else smoke)


def _run_cli(argv: list[str], workdir: Path) -> bytes:
    """Run the CLI in-process; return its stdout, raise on a non-zero exit.

    The work directory is replaced by ``$WORK`` in the returned text, so the
    digest of what the CLI prints does not depend on where its files went.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"rankbin {argv[0]} exited with code {code}")
    return buf.getvalue().replace(str(workdir), "$WORK").encode()


class NullSim:
    name = "null_sim"
    why = ("the paper's null calibration, the dominant user cost: engine "
           "per-node overhead on small bins, per-depth replay and chi2 per "
           "depth, with no ingestion, ranking of real data or output")
    work_unit = "null replicates"

    def __init__(self, seed: int, profile: str):
        self.seed = seed
        self.sizes = _sizes(
            profile,
            full={"n": 1000, "depths": list(range(2, 11)), "reps_per_op": 10,
                  "batches": 20},
            smoke={"n": 200, "depths": list(range(2, 7)), "reps_per_op": 3,
                   "batches": 2},
        )
        # Replicates differ in size (bins per replicate vary by about 30%),
        # so a run cycles through batches of distinct replicates to make the
        # work per run nearly the same for every seed.
        self.variants = tuple(str(j) for j in range(self.sizes["batches"]))

    def prepare(self, workdir: Path) -> None:
        """Nothing to write: each replicate draws its permutations from the seed."""

    def run(self, variant: str) -> tuple[dict[str, bytes], int]:
        s = self.sizes
        table = stats.simulate_null(
            s["n"], s["depths"], "chi", StopConfig(max_depth=max(s["depths"])),
            z=5.0, n_sim=s["reps_per_op"],
            seed=self.seed * s["batches"] + int(variant), workers=1)
        return {"null.csv": table.to_csv_text().encode()}, s["reps_per_op"]

    def problems(self, variant: str, outputs: dict[str, bytes]) -> list[str]:
        depths = self.sizes["depths"]
        lines = outputs["null.csv"].decode().splitlines()
        if lines[0] != "depth,n_bin,chi2":
            return ["null CSV header"]
        rows = [ln.split(",") for ln in lines[1:]]
        if len(rows) != len(depths) * self.sizes["reps_per_op"]:
            return [f"null CSV has {len(rows)} rows"]
        out = []
        for r in range(0, len(rows), len(depths)):
            rep = rows[r:r + len(depths)]
            if [int(x[0]) for x in rep] != depths:
                out.append(f"replicate {r // len(depths)}: depths out of order")
            nb = [int(x[1]) for x in rep]
            if any(b < a for a, b in zip(nb, nb[1:])) or nb[0] < 1:
                out.append(f"replicate {r // len(depths)}: n_bin decreases")
            if not all(math.isfinite(float(x[2])) and float(x[2]) >= 0 for x in rep):
                out.append(f"replicate {r // len(depths)}: bad chi2")
        return out


def partition_problems(doc: dict, n: int) -> list[str]:
    """Criterion-7 invariants of a binning's JSON document."""
    bins = doc["bins"]
    if doc["n"] != n:
        return [f"n {doc['n']} != {n}"]
    ls, us, lt, ut = (np.array([b[k] for b in bins], dtype=np.int64)
                      for k in ("ls", "us", "lt", "ut"))
    out = []
    if int(((us - ls) * (ut - lt)).sum()) != n * n:
        out.append("bin areas do not sum to n^2")
    if sum(b["observed"] for b in bins) != n:
        out.append("observed counts do not sum to n")
    if not math.isclose(sum(b["expected"] for b in bins), n, rel_tol=1e-9):
        out.append("expected counts do not sum to n")
    def crosses(lo, hi):
        return (np.maximum(lo[:, None], lo[None, :])
                < np.minimum(hi[:, None], hi[None, :]))

    overlap = crosses(ls, us) & crosses(lt, ut)
    np.fill_diagonal(overlap, False)
    if overlap.any():
        out.append("bins overlap")
    for b in bins:
        ps, pt = np.array(b["points_s"]), np.array(b["points_t"])
        if ps.size != b["observed"] or pt.size != b["observed"] or (
                ps.size and not (np.all((ps > b["ls"]) & (ps <= b["us"]))
                                 and np.all((pt > b["lt"]) & (pt <= b["ut"])))):
            out.append("points outside their bin")
            break
    return out


def _chi2_text(doc: dict) -> str:
    # same arithmetic, in the same order, as stats.chi2_statistic
    total = 0.0
    for b in doc["bins"]:
        d = b["observed"] - b["expected"]
        total += d * d / b["expected"]
    return f"{total:.10g}"


class Bin1e5:
    name = "bin_1e5"
    why = ("the large-sample CLI path: per-point layers (load_matrix, "
           "candidate sorts, split masks, JSON and SVG output) carry it and "
           "engine per-node overhead is a minority share")
    work_unit = "input points"
    variants = ("chi", "mi", "rand")

    def __init__(self, seed: int, profile: str):
        self.seed = seed
        self.sizes = _sizes(profile, full={"n": 100_000, "max_depth": 10},
                            smoke={"n": 2_000, "max_depth": 8})

    def prepare(self, workdir: Path) -> None:
        self.dir = workdir
        spec = patterns.PatternSpec(kind="wave", n=self.sizes["n"], seed=self.seed)
        x, y = patterns.generate(spec)
        (workdir / "wave.csv").write_text(patterns.pattern_to_csv(x, y))

    def run(self, variant: str) -> tuple[dict[str, bytes], int]:
        d = self.dir
        stdout = _run_cli([
            "bin", "--input", str(d / "wave.csv"), "--out", str(d / "binning.json"),
            "--plot", str(d / "binning.svg"), "--score", variant,
            "--max-depth", str(self.sizes["max_depth"]), "--seed", str(self.seed)], d)
        return {"stdout": stdout,
                "binning.json": (d / "binning.json").read_bytes(),
                "binning.svg": (d / "binning.svg").read_bytes()}, self.sizes["n"]

    def problems(self, variant: str, outputs: dict[str, bytes]) -> list[str]:
        doc = json.loads(outputs["binning.json"])
        n = self.sizes["n"]
        out = partition_problems(doc, n)
        want = f"n={n} n_bin={len(doc['bins'])} chi2={_chi2_text(doc)}\n"
        if outputs["stdout"].decode() != want:
            out.append("stdout disagrees with the JSON partition")
        svg = outputs["binning.svg"].decode()
        if not svg.startswith("<?xml") or svg.count("<rect ") != len(doc["bins"]):
            out.append("SVG does not hold one rect per bin")
        return out


class ScanCli:
    name = "scan_cli"
    why = ("the engine at one depth on ranked real-data pairs, with no "
           "multi-depth replay or replicate batching, plus null loading, "
           "empirical p-values, scan CSV and top-K re-binning with point plots")
    work_unit = "column pairs"

    def __init__(self, seed: int, profile: str):
        self.seed = seed
        self.sizes = _sizes(
            profile,
            full={"rows": 755, "cols": 30, "matrices": 3, "null_sims": 400,
                  "max_depth": 6, "plot_top": 9},
            smoke={"rows": 200, "cols": 8, "matrices": 1, "null_sims": 30,
                   "max_depth": 6, "plot_top": 3},
        )
        self.pairs = self.sizes["cols"] * (self.sizes["cols"] - 1) // 2
        # The work of one scan depends on its matrix by about 5%, so a run
        # cycles through several matrices drawn from the seed, as null_sim
        # cycles through replicate batches.  Matrix j of the seed is batch
        # b = seed * matrices + j; batch 0 is acceptance criterion 10's
        # matrix and scan seed, and the null is that of the seed's first batch.
        m = self.sizes["matrices"]
        self.variants = tuple(str(j) for j in range(m))
        self.null_seed = 1002 + 3 * seed * m

    def _seeds(self, variant: str) -> tuple[int, int]:
        b = self.seed * self.sizes["matrices"] + int(variant)
        return 1001 + 3 * b, 1003 + 3 * b

    def prepare(self, workdir: Path) -> None:
        s = self.sizes
        self.dir = workdir
        for v in self.variants:
            rng = np.random.default_rng(self._seeds(v)[0])
            mat = rng.normal(size=(s["rows"], s["cols"]))
            for a, b in PLANTED:
                mat[:, b] = mat[:, a] + 0.3 * rng.normal(size=s["rows"])
            lines = [",".join(f"c{i:02d}" for i in range(s["cols"]))]
            lines += [",".join(repr(float(x)) for x in row) for row in mat]
            (workdir / f"matrix{v}.csv").write_text("\n".join(lines) + "\n")
        null = stats.simulate_null(
            s["rows"], [s["max_depth"]], "chi", StopConfig(max_depth=s["max_depth"]),
            z=5.0, n_sim=s["null_sims"], seed=self.null_seed, workers=1)
        null.to_json(workdir / "null.json")

    def run(self, variant: str) -> tuple[dict[str, bytes], int]:
        d, s = self.dir, self.sizes
        plots = d / "plots"
        shutil.rmtree(plots, ignore_errors=True)
        stdout = _run_cli([
            "scan", "--input", str(d / f"matrix{variant}.csv"),
            "--null", str(d / "null.json"), "--out", str(d / "scan.csv"),
            "--score", "chi", "--max-depth", str(s["max_depth"]),
            "--seed", str(self._seeds(variant)[1]),
            "--threads", "1", "--plot-top", str(s["plot_top"]),
            "--plot-dir", str(plots)], d)
        outputs = {"stdout": stdout, "scan.csv": (d / "scan.csv").read_bytes()}
        for p in sorted(plots.iterdir()):
            outputs["plots/" + p.name] = p.read_bytes()
        return outputs, self.pairs

    def problems(self, variant: str, outputs: dict[str, bytes]) -> list[str]:
        s = self.sizes
        rows = [ln.split(",") for ln in outputs["scan.csv"].decode().splitlines()]
        out = []
        if rows[0] != ["name_a", "name_b", "n_bin", "chi2", "p_emp"]:
            return ["scan CSV header"]
        rows = rows[1:]
        if len(rows) != self.pairs:
            out.append(f"scan CSV has {len(rows)} rows")
        chi2 = [float(r[3]) for r in rows]
        if any(b > a for a, b in zip(chi2, chi2[1:])):
            out.append("scan rows not sorted by descending chi2")
        if not all(0 < float(r[4]) <= 1 for r in rows):
            out.append("p-value outside (0, 1]")
        planted = {(f"c{a:02d}", f"c{b:02d}") for a, b in PLANTED}
        if {(r[0], r[1]) for r in rows[:3]} != planted:
            out.append("planted pairs are not the scan's top 3")
        svgs = [v.decode() for k, v in outputs.items() if k.startswith("plots/")]
        if len(svgs) != s["plot_top"]:
            out.append(f"{len(svgs)} pair plots, expected {s['plot_top']}")
        if any(v.count("<circle ") != s["rows"] for v in svgs):
            out.append("pair plot does not show every point")
        return out


WORKLOADS = {w.name: w for w in (NullSim, Bin1e5, ScanCli)}
