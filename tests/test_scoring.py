import numpy as np
import pytest
from _oracles import (
    allocating_candidate_scores,
    brute_force_scores,
    evaluation_sites,
    margin_scores,
    random_bin_setup,
    two_child_sum,
)

from rankbin.scoring import candidate_scores, lower_expected


def chi(w, e, z=0.0):
    return margin_scores(w, e, z, "chi")[0]


def mi(w, e, z=0.0):
    return margin_scores(w, e, z, "mi")[0]


def rand(w, e, z, rng):
    return margin_scores(w, e, z, "random", rng)[0]


def gate(w, e, z=0.0):
    return margin_scores(w, e, z, "chi")[1]


def test_chi_worked_example_ungated():
    got = chi([0, 1, 2, 5, 10], e=4.0)
    assert np.allclose(got, [1.1111, 1.5625, 2.0000], atol=1e-4)


def test_chi_worked_example_gated():
    # lower-child expectations are 0.4, 0.8, 2.0; z=1 gates the first two
    got = chi([0, 1, 2, 5, 10], e=4.0, z=1.0)
    assert np.allclose(got, [0.0, 0.0, 2.0000], atol=1e-4)
    assert got[0] == 0.0 and got[1] == 0.0
    # z=0.5 gates only the first candidate (0.4 < 0.5 <= 0.8)
    got = chi([0, 1, 2, 5, 10], e=4.0, z=0.5)
    assert np.allclose(got, [0.0, 1.5625, 2.0000], atol=1e-4)


def test_mi_worked_example():
    got = mi([0, 1, 2, 5, 10], e=4.0)
    assert np.allclose(got, [-0.5878, -0.4700, 0.0000], atol=1e-4)


def test_mi_zero_log_zero_convention():
    # first candidate has no points below: its lower term is exactly 0
    got = mi([0, 1, 2, 5, 10], e=4.0)
    e_lo = lower_expected(1.0, 0.0, 10.0, 4.0)
    upper_term = (2 / 2) * np.log(2 / (4.0 - e_lo))
    assert got[0] == pytest.approx(upper_term, abs=1e-12)


def test_uniform_root_bin_scores_all_zero():
    for kind_scores in (chi, mi):
        for n in (10, 100, 1000):
            w = np.concatenate(([0, 0], np.arange(1, n + 1), [n])).astype(float)
            got = kind_scores(w, float(n), 5.0)
            assert np.all(got == 0.0)


def test_prefix_accounting_matches_point_counts():
    rng = np.random.default_rng(3)
    lower, upper, coords, e = random_bin_setup(rng)
    w = np.concatenate(([lower, coords[0] - 1], coords, [upper])).astype(float)
    # candidate k splits at w[k+1]; its lower count must equal the number of
    # members at or below that coordinate (split goes to the lower child)
    for k, c in enumerate(w[1:-1]):
        assert k == int(np.count_nonzero(coords <= c))


def test_recurrence_matches_brute_force_1000_vectors():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        lower, upper, coords, e = random_bin_setup(rng, min_pts=1, max_pts=60)
        z = float(rng.choice([0.0, 1.0, 5.0]))
        w = np.concatenate(([lower, coords[0] - 1], coords, [upper])).astype(float)
        assert np.allclose(chi(w, e, z), brute_force_scores("chi", w, e, z),
                           atol=1e-9, rtol=0)
        assert np.allclose(mi(w, e, z), brute_force_scores("mi", w, e, z),
                           atol=1e-9, rtol=0)


def test_gate_monotone_in_z():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lower, upper, coords, e = random_bin_setup(rng, max_pts=40)
        w = np.concatenate(([lower, coords[0] - 1], coords, [upper])).astype(float)
        prev_chi = chi(w, e, 0.0)
        for z in (1.0, 2.5, 5.0, 8.0):
            cur = chi(w, e, z)
            active = cur != 0.0
            # raising z never increases a score, and leaves ungated ones alone
            assert np.all(cur[active] == prev_chi[active])
            assert np.all((cur == prev_chi) | (cur == 0.0))
            prev_chi = np.where(active, prev_chi, 0.0)


def test_zero_width_candidates_are_gated_even_at_z0():
    # pseudo-point equal to the lower bound, and a member on the upper bound;
    # in the second vector the upper cut's e - e_lo rounds to 2.2e-16, not 0
    for w, e in (([3.0, 3.0, 4.0, 10.0, 10.0], 6.0),
                 ([0.0, 0.0, 1.0, 3.0, 3.0], 3 * 29 / 44)):
        assert not gate(w, e)[0] and not gate(w, e)[-1]
        for got in (chi(w, e), mi(w, e), rand(w, e, 0.0, np.random.default_rng(0))):
            assert got[0] == 0.0 and got[-1] == 0.0
            assert np.isfinite(got).all()


def test_rand_scores_contract():
    rng = np.random.default_rng(0)
    # all candidates gated -> all zero
    w = np.array([0.0, 4.0, 5.0, 10.0])
    assert np.all(rand(w, 8.0, 6.0, rng) == 0.0)
    # z=0, 103-entry vector -> 100 strictly interior draws in (0,1) plus the
    # two zero-width ends gated
    w = np.concatenate(([0, 0], np.arange(1, 101), [100])).astype(float)
    got = rand(w, 100.0, 0.0, rng)
    assert got.size == 101
    assert got[0] == 0.0 and got[-1] == 0.0
    inner = got[1:-1]
    assert np.all((inner > 0.0) & (inner < 1.0))


def test_rand_argmax_uniform_over_ungated():
    # 10 ungated candidates: each should win argmax ~1/10 of the time
    w = np.concatenate(([0, 4], 5 + np.arange(10), [20])).astype(float)
    ok = gate(w, 20.0, 5.0)
    idx = np.flatnonzero(ok)
    assert idx.size == 10
    rng = np.random.default_rng(99)
    wins = np.zeros(11)
    for _ in range(10_000):
        s = rand(w, 20.0, 5.0, rng)
        wins[np.argmax(s)] += 1
    freq = wins[idx] / 10_000
    assert np.all(np.abs(freq - 0.1) <= 0.01)


def test_gated_score_never_beats_evaluation_sites():
    """Structural optimality of the gated score over the continuum.

    The gated two-child score, as a function of the split coordinate, is
    piecewise convex between consecutive candidates with jumps only at
    candidate coordinates and at the two gate boundaries.  Its supremum is
    therefore attained (or approached) at one of: a candidate evaluated
    with the point counted on either side, or a gate boundary.  A dense
    grid of off-candidate coordinates that pass the gate must never beat
    the best of those evaluation sites.
    """
    rng = np.random.default_rng(2024)
    z = 5.0
    for kind in ("chi", "mi"):
        for _ in range(300):
            lower, upper, coords, e = random_bin_setup(rng)
            o = coords.size
            dens = e / (upper - lower)
            sites = evaluation_sites(lower, upper, coords, e, z)
            best = max(two_child_sum(kind, o1, e1, o - o1, e2, z)
                       for _, e1, e2, o1, _ in sites)
            grid = lower + (upper - lower) * (np.arange(1, 201) - 0.5) / 200.0
            grid = grid[~np.isin(grid, np.concatenate(([coords[0] - 1], coords)))]
            for c in grid:
                e1 = (c - lower) * dens
                if e1 < z or e - e1 < z:
                    continue  # gated coordinates carry no score
                o1 = int(np.count_nonzero(coords <= c))
                val = two_child_sum(kind, o1, e1, o - o1, e - e1, z)
                assert val <= best + 1e-9


def _work(size):
    return [np.empty(size) for _ in range(4)] + [np.empty(size, dtype=bool) for _ in range(2)]


@pytest.mark.parametrize("kind", ["chi", "mi", "random"])
@pytest.mark.parametrize("z", [0.0, 0.5, 5.0, 1e300])
def test_scorer_matches_allocating_oracle(kind, z):
    # Written into the caller's buffers, the scores equal bit for bit those
    # of the scorer that allocated them, a gated cut scoring -inf: on the
    # per-candidate arrays of a level's members and on the scalar ``olo`` of
    # its pseudo-points.
    rng = np.random.default_rng([7, len(kind), int(z > 1)])
    for _ in range(20):
        k = int(rng.integers(1, 12))
        cnt = rng.integers(1, 40, k)
        lower = rng.integers(0, 10**6, k)
        width = cnt + rng.integers(0, 3 * cnt + 2)
        e = rng.uniform(0.25, 3.0, k) * cnt
        coords = np.concatenate([np.sort(rng.choice(w, c, replace=False)) + lo + 1
                                 for c, w, lo in zip(cnt, width, lower)]).astype(np.int32)
        first = np.cumsum(cnt) - cnt
        lower_f, cnt_f, dens = lower.astype(float), cnt.astype(float), e / width
        olo = np.arange(1.0, cnt.sum() + 1.0) - first.astype(float).repeat(cnt)
        calls = [(coords, olo, cnt_f.repeat(cnt), lower_f.repeat(cnt), dens.repeat(cnt),
                  e.repeat(cnt)),
                 (coords[first] - 1, 0.0, cnt_f, lower_f, dens, e)]
        with np.errstate(divide="ignore", invalid="ignore"):
            for coord, *rest in calls:
                draws = rng.random(coord.size) if kind == "random" else None
                want, ok = allocating_candidate_scores(coord.astype(float), *rest, z, kind,
                                                       draws)
                want = np.where(ok, want, -np.inf)
                got = np.empty(coord.size)
                candidate_scores(coord, *rest, z, kind, draws, got, _work(coord.size))
                assert got.tobytes() == want.tobytes()
                if z == 1e300:
                    assert (got == -np.inf).all()
