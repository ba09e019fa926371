"""Recursive rank binning: pairwise dependence measurement on ranked data.

Rank both margins of a paired sample, recursively split the rank-space
partition under a chi, mutual-information, or random score, sum each final
bin's chi contribution into a single statistic, and calibrate it against a
simulated null.  See the README for a tour and ``demos/`` for worked
scripts.
"""

from .bins import Bin, Binning, StopConfig, binning_to_json
from .engine import bin_pair, bin_pair_by_depth
from .patterns import PatternSpec, generate
from .plotting import render_binning
from .ranks import RankedPair, rank, rank_pair
from .scan import (
    IngestionError,
    ScanRecord,
    bottom_k,
    load_matrix,
    middle_k,
    neg_log_returns,
    records_to_csv,
    scan_pairs,
    top_k,
    write_records_csv,
)
from .stats import (
    NullTable,
    chi2_statistic,
    empirical_p,
    mi_statistic,
    null_quantile_curve,
    pearson_residuals,
    simulate_null,
)

__version__ = "0.1.0"

__all__ = [
    "Bin",
    "Binning",
    "IngestionError",
    "NullTable",
    "PatternSpec",
    "RankedPair",
    "ScanRecord",
    "StopConfig",
    "bin_pair",
    "bin_pair_by_depth",
    "binning_to_json",
    "bottom_k",
    "chi2_statistic",
    "empirical_p",
    "generate",
    "load_matrix",
    "mi_statistic",
    "middle_k",
    "neg_log_returns",
    "null_quantile_curve",
    "pearson_residuals",
    "rank",
    "rank_pair",
    "records_to_csv",
    "render_binning",
    "scan_pairs",
    "simulate_null",
    "top_k",
    "write_records_csv",
]
