"""Per-layer spans recorded from outside the rankbin package.

Wrappers are installed on every name a caller looks up, not only on the
defining module: rankbin's modules import functions by name (``from .engine
import bin_pair``), so ``rankbin.scan.bin_pair`` and ``rankbin.cli.bin_pair``
are separate bindings of one function and both must be wrapped.  A function
that no longer exists is listed as absent and its metrics read 0.

Each wrapped call records one span: name, start and end (ns), the index of
the enclosing span, the operation id, the exception type it raised (if any)
and up to two work counts taken from its arguments or result.  Spans are kept
in memory; self time is a span's duration minus the durations of its
children.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _cand_count(args, kwargs, out):
    return int(out.size), 0


def _gate(args, kwargs, out):
    return int(np.count_nonzero(out)), int(out.size)


def _cand_points(args, kwargs, out):
    return int(out.m - 3), 0


def _n_bin(args, kwargs, out):
    return int(out.n_bin), 0


def _n_bin_by_depth(args, kwargs, out):
    return int(sum(b.n_bin for b in out.values())), 0


def _length(args, kwargs, out):
    return len(out), 0


def _cells(args, kwargs, out):
    return int(sum(col.size for col in out.values())), 0


# "<module>.<function>" -> work-count extractor (or None).  Time spent in a
# function that is not listed counts as self time of its nearest traced
# caller: the CLI's argument parsing and file writes land in cli.cli_main.
FUNCTIONS = {
    "ranks.rank": None,
    "scoring.chi_scores": _cand_count,
    "scoring.mi_scores": _cand_count,
    "scoring.rand_scores": _cand_count,
    "scoring.gate_mask": _gate,
    "splitting.max_score_split": None,
    "splitting.candidate_vector": _cand_points,
    "splitting.split_at": None,
    "engine.bin_pair": _n_bin,
    "engine.bin_pair_by_depth": _n_bin_by_depth,
    "bins.binning_to_json": _length,
    "stats.simulate_null": None,
    "stats.chi2_statistic": None,
    "stats.empirical_p": None,
    "scan.load_matrix": _cells,
    "scan.scan_pairs": _length,
    "scan.pair_binning": None,
    "plotting.render_binning": _length,
    "cli.cli_main": None,
}

# "<module>.<Class>.<method>" -> span name.  RankedPair's __post_init__ is
# its permutation validation, the cost of constructing one.
METHODS = {
    "ranks.RankedPair.__post_init__": "ranks.RankedPair",
    "stats.NullTable.from_json": "stats.NullTable.from_json",
}


class Tracer:
    """Installs span-recording wrappers into a loaded rankbin package."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, self.op, err, 0, 0]
            if count is not None:
                spans[idx][6:8] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function under each name that binds it."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rankbin" or key.startswith("rankbin.")]
        for qual, count in FUNCTIONS.items():
            mod_name, func = qual.split(".")
            orig = getattr(sys.modules.get("rankbin." + mod_name), func, None)
            if orig is None:
                self.absent.append(qual)
                continue
            wrapped = self._wrap(qual, orig, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for qual, span_name in METHODS.items():
            mod_name, cls_name, meth = qual.split(".")
            cls = getattr(sys.modules.get("rankbin." + mod_name), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                self.absent.append(qual)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__, None))
            else:
                wrapped = self._wrap(span_name, raw, None)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def aggregate(spans: list) -> dict[str, dict]:
    """Per span name: calls, self_ns, the two work counts, errors by type."""
    if not spans:
        return {}
    t0 = np.array([s[1] for s in spans], dtype=np.int64)
    t1 = np.array([s[2] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = t1 - t0
    child = np.zeros(len(spans), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    agg: dict[str, dict] = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s[0], {"calls": 0, "self_ns": 0, "n1": 0, "n2": 0,
                                  "errors": {}})
        a["calls"] += 1
        a["self_ns"] += int(self_ns[i])
        a["n1"] += s[6]
        a["n2"] += s[7]
        if s[5] is not None:
            a["errors"][s[5]] = a["errors"].get(s[5], 0) + 1
    return agg


def _get(agg, name, key):
    return agg.get(name, {}).get(key, 0)


def _self_ms(agg, *names):
    return sum(_get(agg, n, "self_ns") for n in names) / 1e6


def _module_self_ms(agg, module):
    return sum(a["self_ns"] for n, a in agg.items()
               if n.startswith(module + ".")) / 1e6


def _ratio(num, den):
    return num / den if den else 0.0


_SCORES = ("scoring.chi_scores", "scoring.mi_scores", "scoring.rand_scores")


def layer_metrics(agg: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A layer that did not run (or whose functions are absent) reads 0.
    """
    g = lambda name, key: _get(agg, name, key)  # noqa: E731
    msplit = g("splitting.max_score_split", "calls")
    unsplittable = agg.get("splitting.max_score_split", {}).get(
        "errors", {}).get("UnsplittableBinError", 0)
    scored = sum(g(n, "calls") for n in _SCORES)
    pairs = g("scan.scan_pairs", "n1")
    return {
        "engine.calls": (g("engine.bin_pair", "calls")
                         + g("engine.bin_pair_by_depth", "calls"), "count"),
        "engine.self_ms": (_module_self_ms(agg, "engine"), "ms"),
        "engine.splits": (msplit - unsplittable, "count"),
        "engine.bins_out": (g("engine.bin_pair", "n1")
                            + g("engine.bin_pair_by_depth", "n1"), "count"),
        "splitting.max_score_split.calls": (msplit, "count"),
        "splitting.max_score_split.self_ms": (
            _self_ms(agg, "splitting.max_score_split"), "ms"),
        "splitting.unsplittable": (unsplittable, "count"),
        "splitting.unsplittable_ratio": (_ratio(unsplittable, msplit), "ratio"),
        "splitting.candidate_vector.self_ms": (
            _self_ms(agg, "splitting.candidate_vector"), "ms"),
        "splitting.candidate_vector.points": (
            g("splitting.candidate_vector", "n1"), "count"),
        "splitting.split_at.self_ms": (_self_ms(agg, "splitting.split_at"), "ms"),
        "scoring.calls": (scored, "count"),
        "scoring.self_ms": (_module_self_ms(agg, "scoring"), "ms"),
        "scoring.candidates": (sum(g(n, "n1") for n in _SCORES), "count"),
        "scoring.gate_mask.calls": (g("scoring.gate_mask", "calls"), "count"),
        "scoring.gate_pass_ratio": (
            _ratio(g("scoring.gate_mask", "n1"), g("scoring.gate_mask", "n2")),
            "ratio"),
        "ranks.rank.calls": (g("ranks.rank", "calls"), "count"),
        "ranks.rank.self_ms": (_self_ms(agg, "ranks.rank"), "ms"),
        "ranks.RankedPair.self_ms": (_self_ms(agg, "ranks.RankedPair"), "ms"),
        "scan.load_matrix.self_ms": (_self_ms(agg, "scan.load_matrix"), "ms"),
        "scan.load_matrix.cells": (g("scan.load_matrix", "n1"), "count"),
        "scan.scan_pairs.self_ms": (_self_ms(agg, "scan.scan_pairs"), "ms"),
        "scan.pair_binning.calls": (g("scan.pair_binning", "calls"), "count"),
        "scan.pair_binning_ratio": (
            _ratio(g("scan.pair_binning", "calls"), pairs), "ratio"),
        "bins.binning_to_json.self_ms": (
            _self_ms(agg, "bins.binning_to_json"), "ms"),
        "bins.binning_to_json.bytes": (g("bins.binning_to_json", "n1"), "bytes"),
        "stats.simulate_null.self_ms": (_self_ms(agg, "stats.simulate_null"), "ms"),
        "stats.chi2_statistic.calls": (g("stats.chi2_statistic", "calls"), "count"),
        "stats.chi2_statistic.self_ms": (
            _self_ms(agg, "stats.chi2_statistic"), "ms"),
        "stats.empirical_p.calls": (g("stats.empirical_p", "calls"), "count"),
        "stats.empirical_p.self_ms": (_self_ms(agg, "stats.empirical_p"), "ms"),
        "stats.NullTable.from_json.self_ms": (
            _self_ms(agg, "stats.NullTable.from_json"), "ms"),
        "plotting.render_binning.calls": (
            g("plotting.render_binning", "calls"), "count"),
        "plotting.render_binning.self_ms": (
            _self_ms(agg, "plotting.render_binning"), "ms"),
        "plotting.render_binning.bytes": (
            g("plotting.render_binning", "n1"), "bytes"),
        "cli.cli_main.self_ms": (_self_ms(agg, "cli.cli_main"), "ms"),
    }


# Metrics that count work rather than time it: they must repeat exactly
# between two traced passes over the same inputs.
def work_counts(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
