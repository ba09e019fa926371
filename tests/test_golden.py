"""Golden output digests: the exact bytes of each serialized result.

Every digest was recorded from the code before the engine's scoring,
growth and seeding paths were merged, and pins those outputs byte for
byte: partition JSON under all three scores, a null-table CSV, and a scan's
CSV together with the binning it rebuilds for one pair.  The points SVG
was recorded from the code that formatted each point's coordinates one
at a time, before they were computed as arrays.  Rerun-equality tests
cannot catch a change that moves every run the same way; these can.

A deliberate output change must re-record these values and say why.
"""

import hashlib

import numpy as np
import pytest

from rankbin import (
    StopConfig,
    bin_pair,
    binning_to_json,
    records_to_csv,
    scan_pairs,
    simulate_null,
)
from rankbin.patterns import PatternSpec, generate
from rankbin.plotting import render_binning
from rankbin.ranks import RankedPair, rank_pair
from rankbin.scan import pair_binnings

GOLDEN = {
    "wave_chi":
        "8f6212825fe77c27f310cb826b04be45f6d00f77d86665e77f92e9ec5b68d716",
    "wave_mi":
        "a1e7b021b34e8ec693f868dd7c01ed2969f83e9e535f0660762d9b0c4d80577d",
    "wave_random":
        "cd518cbf239ace3c94abd615ac716430f3172408104472a6876d883b23a3d16e",
    "diagonal_chi":
        "9922791538dc96533ea7d78afb21b0be9c727314a59754448b0b23e9885903b6",
    "diagonal_mi":
        "f12afe4cea9c3537ff15f2c7fec37ebe20b274e05c5e6fc0c886c883c4f02b7c",
    "diagonal_random":
        "2f4694cbfb3322eba298702731cd671460332d23d0f7ba6adc8f53f14d121c56",
    "null_csv":
        "b0041e1ff954547ea22d1d36cf196464d67395018af8788daaf807fd401d6204",
    "scan_csv":
        "5a58deacad94b0d0334d3f731be5e2be9452d11812b2cfb27ecbb3680690083d",
    "pair_binning":
        "4753fa907bd7887287058889c25d6b66b4e0be8240a20a4c5d25be8979a5d28e",
    "points_svg":
        "6c8b6f1c0b27129f0a4a7cd9e97bfc225cbf2d628ec3399d315de3c2ac98fa74",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _matrix():
    # six columns, two dependent pairs, values rounded so ranks break ties
    rng = np.random.default_rng(20231115)
    n = 200
    a = rng.normal(size=n)
    c = rng.normal(size=n)
    cols = {
        "a": a,
        "b": np.round(a + 0.3 * rng.normal(size=n), 1),
        "c": c,
        "d": np.round(np.sin(3 * c) + 0.2 * rng.normal(size=n), 1),
        "e": np.round(rng.normal(size=n), 1),
        "f": rng.uniform(size=n),
    }
    return cols


def _scan_config():
    return "chi", StopConfig(max_depth=4), 5.0, 17


def golden_outputs() -> dict[str, str]:
    """Each golden artifact's text, keyed like ``GOLDEN``."""
    out = {}
    x, y = generate(PatternSpec(kind="wave", n=2000, seed=7))
    wave = rank_pair(x, y, np.random.default_rng(8))
    for kind in ("chi", "mi", "random"):
        out[f"wave_{kind}"] = binning_to_json(
            bin_pair(wave, kind, StopConfig(max_depth=10), z=5.0, seed=3)
        )
    perm = np.random.default_rng(11).permutation(300) + 1
    diagonal = RankedPair(s=perm, t=perm, n=300)
    for kind in ("chi", "mi", "random"):
        out[f"diagonal_{kind}"] = binning_to_json(
            bin_pair(diagonal, kind, StopConfig(max_depth=12, min_expected=0.0),
                     z=2.0, seed=5)
        )
    out["null_csv"] = simulate_null(
        300, range(2, 7), "chi", StopConfig(max_depth=6), z=5.0, n_sim=20, seed=4
    ).to_csv_text()
    table = _matrix()
    kind, stop, z, base_seed = _scan_config()
    null = simulate_null(200, [4], kind, stop, z=z, n_sim=30, seed=2)
    records = scan_pairs(table, kind, stop, z, base_seed, null)
    out["scan_csv"] = records_to_csv(records)
    top = records[0]
    out["pair_binning"] = binning_to_json(
        pair_binnings(table, [(top.name_a, top.name_b)], kind, stop, z, base_seed)[0]
    )
    # n = 755 makes the plot scale 500 / n inexact, so every coordinate
    # exercises the float formatting
    x, y = generate(PatternSpec(kind="circle", n=755, seed=9))
    circle = rank_pair(x, y, np.random.default_rng(10))
    out["points_svg"] = render_binning(
        bin_pair(circle, "chi", StopConfig(max_depth=6), z=5.0, seed=12),
        fill="residual", show_points=True)
    return out


@pytest.fixture(scope="module")
def outputs():
    return golden_outputs()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digest(outputs, name):
    assert _sha(outputs[name]) == GOLDEN[name]


if __name__ == "__main__":
    for key, text in golden_outputs().items():
        print(f'    "{key}": "{_sha(text)}",')
