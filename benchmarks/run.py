"""rankbin benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload null_sim --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py`` for what each one loads and why):

* ``null_sim``  ``stats.simulate_null`` at n = 1000, depths 2..10, chi score,
                10 replicates per operation, cycling through 20 batches of
                distinct replicates;
* ``bin_1e5``   the CLI ``bin`` command on an n = 100,000 wave sample at
                depth 10 with an SVG plot, rotating through chi, mi and rand;
* ``scan_cli``  the CLI ``scan`` command on 30 x 755 matrices with 3 planted
                pairs (seed 0's first is acceptance criterion 10's),
                ``--threads 1 --plot-top 9``, cycling through 3 matrices,
                against a null table simulated during set-up.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json:
``setup_s`` (import, inputs, null table and a small warm-up; median of 3
set-ups), ``peak_rss_mb``, ``ok_frac`` (1 - failed_frac) and ``work_per_s``
(null replicates, input points or column pairs per second of operation
time: the work of one cycle over the variants divided by the sum of their
median times).  Times are in reference seconds: each set-up and each
operation is scaled by a fixed kernel timed right before and after it
(``calibrate.py``), which cancels the shared host's drifting speed.  It
also prints, without gating them, ``failed_frac``, ``op_ms_p50`` (median
time of one operation, averaged over the variants the workload cycles
through: score kinds, replicate batches or matrices), the per-workload
names ``null_reps_per_s``, ``bin_{chi,mi,random}_ms_p50`` and
``scan_pairs_per_s``, and in wall-clock terms ``work_per_wall_s``,
``setup_wall_s`` and the kernel's median ``host_kernel_ms``.
``--trace 1`` alternates untraced and traced passes over the workload's
operations and reports per-layer counts and self times (``tracing.py``) and
``trace.overhead_ratio``.

Every operation's output bytes are hashed and compared with
``reference_digests.json`` where it holds the seed, and otherwise with the
first output of the run after that output passed the workload's structural
checks.  A mismatch or an exception is a failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and sample count.  A fuller result with provenance is
written to ``.bench_out/`` in the checkout.  The benchmark pins BLAS/OpenMP
threads to 1 and runs everything in this one process.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
# Host-clock kernel calls per sample: about 5% of one operation's time.
CLOCK_REPS = {"null_sim": 2, "bin_1e5": 5, "scan_cli": 30}
KIND_LABEL = {"chi": "chi", "mi": "mi", "rand": "random"}


def _load():
    """Put the checkout's ``src`` on the path and import the benchmark modules."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    return workloads, tracing


def _digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        data = outputs[name]
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _corrupt(outputs: dict[str, bytes]) -> dict[str, bytes]:
    """Flip one bit of one byte of the first output, for the self-test."""
    name = sorted(outputs)[0]
    data = bytearray(outputs[name])
    data[len(data) // 2] ^= 0x01
    return {**outputs, name: bytes(data)}


def load_references(name: str, profile: str, seed: int) -> dict[str, str]:
    path = BENCH / "reference_digests.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    return refs.get(name, {}).get(profile, {}).get(str(seed), {})


class Runner:
    """Runs and checks one workload's operations, counting failures."""

    def __init__(self, wl, references: dict[str, str], corrupt_op=None):
        self.wl = wl
        self.references = references
        self.corrupt_op = corrupt_op
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, set] = {}
        self.tracer = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
            print(f"FAILED: {message}", file=sys.stderr)

    def attempt(self, variant: str):
        """One operation: (seconds, units, output bytes) or None if it raised."""
        i = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            outputs, units = self.wl.run(variant)
        except Exception:
            self.fail(f"op {i} ({variant}) raised:\n{traceback.format_exc()}")
            return None
        dt = time.perf_counter() - t0
        if i == self.corrupt_op:
            outputs = _corrupt(outputs)
        self.check(i, variant, outputs)
        return dt, units, sum(len(v) for v in outputs.values())

    def check(self, i: int, variant: str, outputs: dict[str, bytes]) -> None:
        digest = _digest(outputs)
        self.digests.setdefault(variant, set()).add(digest)
        want = self.references.get(variant) or self.first.get(variant)
        if variant not in self.first:
            try:
                problems = self.wl.problems(variant, outputs)
            except Exception as exc:  # malformed output is a failed check
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.fail(f"op {i} ({variant}): " + "; ".join(problems))
                return
            self.first[variant] = digest
        if want is not None and digest != want:
            self.fail(f"op {i} ({variant}): output digest {digest[:12]} "
                      f"!= expected {want[:12]}")

    def run_pass(self):
        """One operation per variant: (wall seconds, per-variant results)."""
        t0 = time.perf_counter()
        results = {v: self.attempt(v) for v in self.wl.variants}
        return time.perf_counter() - t0, results


def setup(cls, seed: int, profile: str, workdir: Path, clock):
    """Build the workload SETUP_REPEATS times; return it and each set-up time.

    A set-up writes the inputs, simulates any null table, and warms up with
    one smoke-size operation per variant.  Times are returned in reference
    seconds and in wall seconds.
    """
    times, walls = [], []
    before = clock.sample()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "warm").mkdir(parents=True)
        t0 = time.perf_counter()
        wl = cls(seed, profile)
        wl.prepare(workdir)
        warm = cls(seed, "smoke")
        warm.prepare(workdir / "warm")
        for v in warm.variants:
            warm.run(v)
        wall = time.perf_counter() - t0
        after = clock.sample()
        walls.append(wall)
        times.append(wall * clock.scale(before, after))
        before = after
    return wl, times, walls


def measure(runner: Runner, seconds: float, clock) -> dict:
    """Untraced timing: whole cycles over the variants until time is up.

    The host clock is sampled between operations; each operation's time is
    scaled by the samples on either side of it (``calibrate.py``).
    """
    wl = runner.wl
    times = {v: [] for v in wl.variants}
    units = {}
    walls = []
    before = clock.sample()
    deadline = time.perf_counter() + seconds
    while True:
        for v in wl.variants:
            r = runner.attempt(v)
            after = clock.sample()
            if r is not None:
                times[v].append(r[0] * clock.scale(before, after))
                walls.append(r[0])
                units[v] = r[1]
            before = after
        if time.perf_counter() >= deadline:
            break
    per_variant = {v: statistics.median(t) for v, t in times.items() if t}
    ran = sum(len(t) for t in times.values())
    cycle_s = sum(per_variant.values())
    work_per_s = sum(units.values()) / cycle_s if cycle_s else 0.0
    ok = (runner.attempted - runner.failed) / runner.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_frac": (ok, "frac", runner.attempted),
        "work_per_s": (work_per_s, "1/s", ran),
    }
    named = {"failed_frac": (1.0 - ok, "frac", runner.attempted),
             "op_ms_p50": (1000.0 * statistics.fmean(per_variant.values())
                           if per_variant else 0.0, "ms", ran)}
    if wl.name == "null_sim":
        named["null_reps_per_s"] = (work_per_s, "1/s", ran)
    elif wl.name == "scan_cli":
        named["scan_pairs_per_s"] = (work_per_s, "1/s", ran)
    else:
        for v in wl.variants:
            named[f"bin_{KIND_LABEL[v]}_ms_p50"] = (
                1000.0 * per_variant.get(v, 0.0), "ms", len(times[v]))
    wall_s = sum(walls)
    named["work_per_wall_s"] = (
        sum(units[v] * len(times[v]) for v in units) / wall_s if wall_s else 0.0,
        "1/s", ran)
    named["host_kernel_ms"] = (clock.median_ms(), "ms", len(clock.samples))
    return {"metrics": metrics, "named": named, "op_times_ref_s": times}


def measure_traced(runner: Runner, seconds: float, tracing, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones.

    Counts come from the first traced pass and must repeat exactly in every
    later one; times are medians over traced passes.
    """
    tracer = tracing.Tracer()
    untraced, traced, passes = [], [], []
    first_spans = None
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(runner.run_pass()[0])
        tracer.install()
        runner.tracer = tracer
        try:
            wall, results = runner.run_pass()
        finally:
            runner.tracer = None
            tracer.uninstall()
        traced.append(wall)
        spans = tracer.take()
        m = tracing.layer_metrics(tracing.aggregate(spans))
        m["output.bytes"] = (sum(r[2] for r in results.values() if r), "bytes")
        if passes and tracing.work_counts(m) != tracing.work_counts(passes[0]):
            runner.fail(f"traced pass {len(passes)}: work counts differ from pass 0")
        passes.append(m)
        if first_spans is None:
            first_spans = spans
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if unit == "ms":
            value = statistics.median(p[name][0] for p in passes)
        metrics[name] = (value, unit, len(passes))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio", len(traced))
    with gzip.open(spans_path, "wt") as fh:
        for s in first_spans:
            fh.write(json.dumps(s) + "\n")
    called = {s[0] for s in first_spans}
    traced_names = set(tracing.FUNCTIONS) | set(tracing.METHODS.values())
    return {"metrics": metrics, "named": {}, "absent": tracer.absent,
            "not_called": sorted(traced_names - called - set(tracer.absent)),
            "spans_file": str(spans_path)}


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  profile: str = "full", corrupt_op=None,
                  import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; return the full result."""
    workloads, tracing = _load()
    import calibrate
    cls = workloads.WORKLOADS[workload]
    clock = calibrate.HostClock(CLOCK_REPS[workload])
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}"
    try:
        wl, setup_times, setup_walls = setup(cls, seed, profile, workdir, clock)
        runner = Runner(wl, load_references(workload, profile, seed), corrupt_op)
        if trace:
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
            result = measure_traced(runner, seconds, tracing, spans_path)
        else:
            result = measure(runner, seconds, clock)
            result["metrics"] = {
                "setup_s": (import_s * clock.scale(clock.samples[0], clock.samples[0])
                            + statistics.median(setup_times), "s", len(setup_times)),
                **result["metrics"]}
            result["named"]["setup_wall_s"] = (
                import_s + statistics.median(setup_walls), "s", len(setup_walls))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        correct=runner.failed == 0, attempted=runner.attempted,
        failed=runner.failed, failures=runner.failures,
        digests={v: sorted(d) for v, d in runner.digests.items()},
        reference_used=bool(runner.references),
        setup_times_ref_s=setup_times, setup_times_wall_s=setup_walls,
        import_s=import_s, host_kernel_s=clock.samples,
        provenance=provenance(wl, seed, profile, trace))
    return result


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """The checked-out commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "rankbin").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(wl, seed: int, profile: str, trace: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "threads_pinned_to_1": {v: os.environ.get(v) for v in PINNED},
        "trace": trace,
        "workload": {"name": wl.name, "why": wl.why, "seed": seed,
                     "profile": profile, "sizes": wl.sizes,
                     "variants": list(wl.variants), "work_unit": wl.work_unit},
    }


def _report(result: dict) -> None:
    wl = result["provenance"]["workload"]
    print(f"workload {wl['name']} seed {wl['seed']} profile {wl['profile']}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    print(f"  why: {wl['why']}")
    for name, (value, unit, n) in {**result["metrics"], **result["named"]}.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} n={n}")
    if result.get("absent"):
        print(f"  absent (not traced): {', '.join(result['absent'])}")
    if result.get("not_called"):
        print(f"  not called: {', '.join(result['not_called'])}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["null_sim", "bin_1e5", "scan_cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--profile", choices=["full", "smoke"], default="full",
                   help="smoke: small inputs for the benchmark's self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "rankbin" / "__init__.py").is_file():
        print(f"benchmark: no rankbin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in PINNED:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    _load()
    import_s = time.perf_counter() - t0
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace,
                           args.profile, import_s=import_s)
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    _report(result)
    print(f"result file: {out}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
