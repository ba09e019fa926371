"""Command-line interface.

Subcommands:

* ``bin``      rank and recursively bin an x,y sample; write the partition
               as JSON and optionally as an SVG plot
* ``nullsim``  simulate the null distribution over a range of depth limits
               and write a depth,n_bin,chi2 CSV
* ``pattern``  generate one of the synthetic test patterns as x,y CSV
* ``scan``     score every column pair of a matrix against a null table
* ``pvalue``   empirical p-value of an observed (n_bin, chi2) pair

Exit codes: 0 success, 1 usage error, 2 data error.

Every draw comes from a stream of ``--seed`` (``substreams`` states the
policy), so equal invocations write identical bytes.  Residual plots use
saturated blue #2166AC for negative residuals and saturated red #B2182B for
positive ones, fading to white at zero.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .bins import StopConfig, binning_to_json
from .engine import bin_pair
from .patterns import PATTERN_KINDS, PatternSpec, generate, pattern_to_csv
from .plotting import render_binning, render_binnings
from .ranks import rank_pair
from .scan import (
    IngestionError,
    _read_table,
    load_matrix,
    pair_binnings,
    scan_pairs,
    top_k,
    write_records_csv,
)
from .stats import NullTable, chi2_statistic, empirical_p, simulate_null
from .substreams import stream

_SCORES = {"chi": "chi", "mi": "mi", "rand": "random", "random": "random"}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _at_least(low: int, what: str):
    """An argparse type: an integer >= ``low``, else a usage error about ``what``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_seed = _at_least(0, "seed")


def _depths(text: str) -> list[int]:
    """Parse '2..10', '6', or '2,4,6' into a depth list."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            try:
                out.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad depth range {part!r}") from None
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad depth {part!r}") from None
    if not out or min(out) < 0:
        raise argparse.ArgumentTypeError(f"bad depth list {text!r}")
    return sorted(set(out))


def _add_config_flags(sub, with_depth=True):
    sub.add_argument("--score", choices=sorted(_SCORES), default="chi")
    if with_depth:
        sub.add_argument("--max-depth", type=int, default=6)
    sub.add_argument("--min-exp", type=float, default=10.0,
                     help="stop splitting a bin once expected <= this")
    sub.add_argument("--min-split", type=float, default=5.0,
                     help="minimum expected count either side of a split (z)")
    sub.add_argument("--seed", type=_seed, default=0)


_EPILOG = (
    "Residual plots shade negative residuals toward #2166AC (blue) and "
    "positive ones toward #B2182B (red), fading to white at zero.  Depth "
    "plots shade white (depth 0) to #404040 at the configured --max-depth.  "
    "All commands are deterministic given --seed."
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rankbin", description=__doc__.split("\n\n")[0],
                     epilog=_EPILOG)
    subs = parser.add_subparsers(dest="command", required=True)

    p_bin = subs.add_parser("bin", help="rank and bin one x,y sample")
    p_bin.add_argument("--input", required=True, help="CSV with x,y columns")
    _add_config_flags(p_bin)
    p_bin.add_argument("--out", required=True, help="output JSON path")
    p_bin.add_argument("--plot", help="optional SVG output path")
    p_bin.add_argument("--fill", choices=["depth", "residual"], default="residual")
    p_bin.add_argument("--points", action="store_true", help="overlay points on the plot")
    p_bin.set_defaults(func=_cmd_bin)

    p_null = subs.add_parser("nullsim", help="simulate the null distribution")
    p_null.add_argument("--n", type=int, required=True)
    p_null.add_argument("--sims", type=int, required=True)
    p_null.add_argument("--depths", type=_depths, default=list(range(2, 11)),
                        help="e.g. 2..10 or 2,4,6 (default 2..10)")
    _add_config_flags(p_null, with_depth=False)
    p_null.add_argument("--out", required=True, help="output CSV path")
    p_null.set_defaults(func=_cmd_nullsim)

    p_pat = subs.add_parser("pattern", help="generate a synthetic pattern")
    p_pat.add_argument("--kind", choices=PATTERN_KINDS, required=True)
    p_pat.add_argument("--n", type=int, required=True)
    p_pat.add_argument("--noise", type=float, default=None)
    p_pat.add_argument("--seed", type=_seed, default=0)
    p_pat.add_argument("--out", required=True, help="output CSV path")
    p_pat.set_defaults(func=_cmd_pattern)

    p_scan = subs.add_parser("scan", help="score every column pair of a matrix")
    p_scan.add_argument("--input", required=True, help="CSV matrix with header")
    p_scan.add_argument("--null", required=True, help="null table CSV or JSON")
    _add_config_flags(p_scan)
    p_scan.add_argument("--window", type=int, default=2,
                        help="n_bin window for empirical p-values")
    p_scan.add_argument("--threads", type=_at_least(1, "threads"),
                        default=os.cpu_count() or 1)
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.add_argument("--plot-top", type=_at_least(0, "plot-top"), default=0,
                        help="render SVGs for the top K pairs")
    p_scan.add_argument("--plot-dir", help="directory for pair SVGs")
    p_scan.set_defaults(func=_cmd_scan)

    p_pv = subs.add_parser("pvalue", help="empirical p-value from a null table")
    p_pv.add_argument("--null", required=True, help="null table CSV or JSON")
    p_pv.add_argument("--nbin", type=int, required=True)
    p_pv.add_argument("--chi2", type=float, required=True)
    p_pv.add_argument("--window", type=int, default=2)
    p_pv.set_defaults(func=_cmd_pvalue)
    return parser


def _read_xy(path) -> tuple[np.ndarray, np.ndarray]:
    names, table = _read_table(path)
    # a dropped x or y column must not let the next columns stand in for it
    for name in names[:2]:
        if name not in table:
            raise IngestionError(f"{path}: column {name!r} has missing values")
    if len(table) < 2:
        raise IngestionError(f"{path}: need two columns, found {len(table)}")
    return table[names[0]], table[names[1]]


def _load_null(path) -> NullTable:
    with open(path) as fh:
        head = fh.read().lstrip()[:1]
    if head == "{":
        return NullTable.from_json(path)
    return NullTable.from_csv(path)


def _stop(args) -> StopConfig:
    return StopConfig(max_depth=args.max_depth, min_expected=args.min_exp)


def _cmd_bin(args) -> int:
    x, y = _read_xy(args.input)
    pair = rank_pair(x, y, stream(args.seed, 0))
    binning = bin_pair(pair, kind=_SCORES[args.score], stop=_stop(args),
                       z=args.min_split, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(binning_to_json(binning))
    chi2, n_bin = chi2_statistic(binning)
    if args.plot:
        with open(args.plot, "w") as fh:
            fh.write(render_binning(binning, fill=args.fill, show_points=args.points))
    print(f"n={pair.n} n_bin={n_bin} chi2={chi2:.10g}")
    return 0


def _cmd_nullsim(args) -> int:
    stop = StopConfig(max_depth=max(args.depths), min_expected=args.min_exp)
    table = simulate_null(args.n, args.depths, _SCORES[args.score], stop,
                          z=args.min_split, n_sim=args.sims, seed=args.seed)
    table.to_csv(args.out)
    print(f"wrote {table.size} null entries to {args.out}")
    return 0


def _cmd_pattern(args) -> int:
    spec = PatternSpec(kind=args.kind, n=args.n, noise=args.noise, seed=args.seed)
    x, y = generate(spec)
    with open(args.out, "w") as fh:
        fh.write(pattern_to_csv(x, y))
    print(f"wrote {args.n} {args.kind} points to {args.out}")
    return 0


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _cmd_scan(args) -> int:
    table = load_matrix(args.input)
    null = _load_null(args.null)
    records = scan_pairs(table, _SCORES[args.score], _stop(args), args.min_split,
                         args.seed, null, window=args.window,
                         workers=args.threads)
    write_records_csv(records, args.out)
    print(f"scanned {len(records)} pairs -> {args.out}")
    if args.plot_top > 0:
        os.makedirs(args.plot_dir, exist_ok=True)
        chosen = top_k(records, min(args.plot_top, len(records)))
        binnings = pair_binnings(table, [(r.name_a, r.name_b) for r in chosen],
                                 _SCORES[args.score], _stop(args), args.min_split,
                                 args.seed)
        # one shared hue range so the panels compare directly
        svgs = render_binnings(binnings, fill="residual", show_points=True)
        for i, (rec, svg) in enumerate(zip(chosen, svgs), start=1):
            name = f"rank{i:02d}_{_safe_name(rec.name_a)}__{_safe_name(rec.name_b)}.svg"
            with open(os.path.join(args.plot_dir, name), "w") as fh:
                fh.write(svg)
        print(f"wrote {len(chosen)} pair plots to {args.plot_dir}")
    return 0


def _cmd_pvalue(args) -> int:
    null = _load_null(args.null)
    p = empirical_p(null, (args.nbin, args.chi2), window=args.window)
    print(p)
    return 0


def cli_main(argv=None) -> int:
    """Run the CLI on an argv list; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "scan" and args.plot_top > 0 and not args.plot_dir:
            parser.error("--plot-top requires --plot-dir")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # IngestionError is a ValueError
        print(f"rankbin: data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
