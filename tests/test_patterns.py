import numpy as np
import pytest

from rankbin import (
    PatternSpec,
    StopConfig,
    bin_pair,
    chi2_statistic,
    generate,
    rank_pair,
    simulate_null,
)
from rankbin.patterns import PATTERN_KINDS, pattern_to_csv


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_output_lengths(kind):
    x, y = generate(PatternSpec(kind=kind, n=1000, seed=1))
    assert x.shape == (1000,) and y.shape == (1000,)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))


def test_deterministic_given_seed():
    a = generate(PatternSpec(kind="wave", n=100, seed=5))
    b = generate(PatternSpec(kind="wave", n=100, seed=5))
    c = generate(PatternSpec(kind="wave", n=100, seed=6))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_spec_validation():
    with pytest.raises(ValueError):
        PatternSpec(kind="spiral", n=10)
    with pytest.raises(ValueError):
        PatternSpec(kind="wave", n=0)
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            PatternSpec(kind="wave", n=10, noise=noise)
    # a seed of None would draw fresh entropy, so two specs would differ
    for seed in (None, 1.5, 2.0, "3"):
        with pytest.raises(TypeError):
            PatternSpec(kind="wave", n=10, seed=seed)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PatternSpec(kind="wave", n=10, seed=-1)
    # any integer type of the same value draws the same points
    want = generate(PatternSpec(kind="wave", n=10, seed=5))
    for seed in (np.int64(5), np.uint8(5)):
        assert np.array_equal(generate(PatternSpec(kind="wave", n=10, seed=seed))[1], want[1])
    assert len(generate(PatternSpec(kind="wave", n=10, seed=2**70))[0]) == 10


def test_four_clusters_margins_are_independent():
    # rank correlation concentrates near zero: |rho| < 0.1 for >= 95/100 seeds
    hits = 0
    for seed in range(100):
        x, y = generate(PatternSpec(kind="four_clusters", n=1000, seed=seed))
        pair = rank_pair(x, y, np.random.default_rng(seed))
        rho = np.corrcoef(pair.s, pair.t)[0, 1]
        hits += abs(rho) < 0.1
    assert hits >= 95


def test_noise_parameter_respected():
    calm = generate(PatternSpec(kind="wave", n=2000, seed=3, noise=0.0))
    loud = generate(PatternSpec(kind="wave", n=2000, seed=3, noise=1.0))
    resid_calm = calm[1] - np.sin(4 * np.pi * calm[0])
    resid_loud = loud[1] - np.sin(4 * np.pi * loud[0])
    assert np.allclose(resid_calm, 0.0)
    assert np.std(resid_loud) > 0.5


def test_wave_is_detected_against_null():
    # scaled-down power check; the acceptance suite runs the full protocol
    stop = StopConfig(max_depth=10)
    null = simulate_null(1000, [10], "chi", stop, z=5.0, n_sim=60, seed=8)
    x, y = generate(PatternSpec(kind="wave", n=1000, seed=0))
    pair = rank_pair(x, y, np.random.default_rng(0))
    chi2, _ = chi2_statistic(bin_pair(pair, "chi", stop, 5.0, seed=0))
    assert chi2 > null.chi2s.max()


def test_pattern_csv_header_and_rows():
    x, y = generate(PatternSpec(kind="circle", n=5, seed=2))
    text = pattern_to_csv(x, y)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 6
    xi, yi = lines[1].split(",")
    assert float(xi) == x[0] and float(yi) == y[0]
