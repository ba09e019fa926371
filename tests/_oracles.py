"""Independent oracles shared across tests.

Everything here recomputes quantities from scratch (per-candidate counting,
direct two-child evaluation, the per-bin engine) so that library results
are checked against a second, structurally different implementation.  Two
thin wrappers put the library's batched scorer and splitter in the shape of
one margin and one bin, ``allocating_scored`` is the scoring pass without
a scratch workspace, ``chunked_goes_up`` and ``chunked_partition`` are the
member moves run chunk by chunk, and ``check_partition`` checks the
invariants every partition must meet.  ``per_pair_scan`` is the scan one
pair at a time, placing each p-value with ``per_record_p``; ``per_pair_seed``
and ``per_bin_draws`` build one pair's binning seed and one bin's draws
from numpy's own ``SeedSequence`` and ``Generator``, and ``stream_draws``
gives ``best_splits`` its draws a stream per bin.  The per-point
and per-bin layers are kept as they were before they became array passes:
``stable_rank``, ``per_bin_json``, ``per_point_render`` (with
``per_bin_residuals``), ``per_bin_chi2``, and ``points_tree_binnings``, the
growth that carried every member in original order (``points_grow_levels``)
read by ``whole_level_read_bins``.
"""

from __future__ import annotations

import math

import numpy as np

from typing import NamedTuple

from rankbin.bins import Bin, Binning, StopConfig, _fmt_real
from rankbin.engine import bin_pair, read_off
from rankbin.plotting import DEPTH_HUE, FILL_MODES, NEGATIVE_HUE, POSITIVE_HUE
from rankbin.ranks import RankedPair, rank
from rankbin.scan import ScanRecord
from rankbin.scoring import candidate_scores, lower_expected
from rankbin.splitting import Workspace, best_splits, chunks
from rankbin.stats import chi2_statistic


def margin_scores(w, e, z, kind, rng=None):
    """The library's gated scores (0 where gated) and gate on one margin.

    ``w`` is [lower, pseudo, members..., upper], the candidates its interior
    entries, scored by ``candidate_scores`` into buffers of their own, with
    the upper-bound test that ``best_splits`` applies; kind "random" draws
    one number per candidate.  A gated cut scores -inf, and every other
    score is finite (chi and mi) or a draw in [0, 1) (random), so the gate
    is ``scores > -inf``.
    """
    w = np.asarray(w, dtype=float)
    inner = w[1:-1]
    draws = rng.random(inner.size) if kind == "random" else None
    scores = np.empty(inner.size)
    work = [np.empty(inner.size) for _ in range(4)] + [np.empty(inner.size, dtype=bool)
                                                       for _ in range(2)]
    with np.errstate(divide="ignore", invalid="ignore"):
        candidate_scores(inner, np.arange(inner.size, dtype=float), inner.size - 1.0, w[0],
                         e / (w[-1] - w[0]), e, z, kind, draws, scores, work)
    ok = scores > -np.inf
    ok[-1] &= inner[-1] < w[-1]
    return np.where(ok, scores, 0.0), ok


def one_bin_split(b, kind, z, rng):
    """The library's ``best_splits`` on one bin: (splittable, on t, cut)."""
    ok, on_t, cut = best_splits(
        np.array([b.lower_s]), np.array([b.upper_s]), np.array([b.lower_t]),
        np.array([b.upper_t]), np.array([b.expected]), np.array([b.observed]),
        np.sort(b.points_s), np.sort(b.points_t), kind, z, stream_draws(lambda j: rng),
        Workspace())
    return bool(ok[0]), bool(on_t[0]), int(cut[0])


# ---------------------------------------------------------------------------
# The allocating scoring pass: ``splitting._scored`` and the scorer as they
# were before the scratch workspace, every temporary of every chunk allocated
# afresh, kept verbatim as the byte-for-byte reference of the workspace path.


def allocating_candidate_scores(coord, olo, o, lower, dens, e, z, kind, draws=None, out=None):
    e_lo = coord - lower
    e_lo *= dens
    e_hi = e - e_lo
    low = np.minimum(e_lo, e_hi)
    ok = low >= z if z > 0 else low > 0
    if kind == "random":
        if out is None:
            return draws, ok
        np.copyto(out, draws)
        return out, ok
    if kind not in ("chi", "mi"):
        raise ValueError(f"unknown score kind {kind!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "chi":
            lo = np.subtract(olo, e_lo, out=out)
            lo *= lo
            lo /= e_lo
            hi = o - olo
            hi -= e_hi
            hi *= hi
            hi /= e_hi
            lo += hi
            return lo, ok
        ohi = o - olo
        return np.add(np.where(olo > 0, (olo / o) * np.log(olo / e_lo), 0.0),
                      np.where(ohi > 0, (ohi / o) * np.log(ohi / e_hi), 0.0), out=out), ok


def _allocating_summary(masked, p_masked, pseudo, coords, cnt, parts):
    first = np.cumsum(cnt) - cnt
    best = np.maximum(p_masked, np.maximum.reduceat(masked, first))
    hits = np.concatenate([np.flatnonzero(masked[c] == spread(best)) + c.start
                           for c, spread in parts] + [[masked.size]])
    at = np.searchsorted(hits, first)
    p_best = p_masked == best
    n_best = np.searchsorted(hits, first + cnt) - at + p_best
    some = best > -np.inf
    flat = ~some
    tied = some & (n_best > 1)
    if tied.any():
        n_ok = np.add.reduceat(masked > -np.inf, first, dtype=np.intp) + (p_masked > -np.inf)
        flat |= tied & (n_best == n_ok)
    member = np.minimum(hits[at], masked.size - 1)
    idx = np.where(some, np.where(p_best, 0, member - first + 1), -1)
    return flat, np.where(some, best, 0.0), idx, np.where(p_best, pseudo, coords[member])


def allocating_scored(margins, cnt, e, kind, z):
    """``splitting._scored`` without a workspace: the summary of each of
    ``margins`` of every bin, by scoring every candidate."""
    first = np.cumsum(cnt) - cnt
    parts = chunks(cnt)
    first_f, cnt_f = first.astype(float), cnt.astype(float)
    tabs = [(coords, lower.astype(float), upper, e / (upper - lower), draws)
            for coords, lower, upper, draws in margins]
    masked = [np.empty(cnt.sum()) for _ in tabs]
    for c, spread in parts:
        olo = np.arange(c.start + 1.0, c.stop + 1.0)
        olo -= spread(first_f)
        o, e_c = spread(cnt_f), spread(e)
        for m, (coords, lower, _, dens, (_, m_draws)) in zip(masked, tabs):
            _, ok = allocating_candidate_scores(
                coords[c].astype(float), olo, o, spread(lower), spread(dens), e_c, z, kind,
                None if m_draws is None else m_draws[c], out=m[c])
            np.copyto(m[c], -np.inf, where=~ok)
    last = first + cnt - 1
    summaries = []
    for m, (coords, lower, upper, dens, (p_draws, _)) in zip(masked, tabs):
        pseudo = coords[first] - 1
        scores, ok = allocating_candidate_scores(pseudo.astype(float), 0.0, cnt_f, lower, dens,
                                                 e, z, kind, p_draws)
        m[last[coords[last] >= upper]] = -np.inf
        summaries.append(_allocating_summary(m, np.where(ok, scores, -np.inf), pseudo, coords,
                                             cnt, parts))
    return summaries


# ---------------------------------------------------------------------------
# The chunked member moves: ``engine._goes_up`` and ``engine._partition`` as
# they were before every move became one whole-level mask and gather, run
# over the ``chunks`` of the members, kept verbatim as their byte-for-byte
# reference.  ``ws`` needs only a ``hit`` array of ``BLOCK`` booleans.


def chunked_goes_up(a, b, parts, on_t, cut, ws):
    """Which entries of one point order go to their node's upper child.

    ``a`` and ``b`` hold the s and t coordinates of the order, node after
    node, in ``splitting.chunks`` ``parts``.  A member of node j goes up when
    its t (if ``on_t[j]``) or s coordinate exceeds ``cut[j]``.  The t test
    goes to the ``Workspace`` ``ws``.
    """
    up = np.empty(a.size, dtype=bool)
    for c, spread in parts:
        cut_c = spread(cut)
        np.greater(a[c], cut_c, out=up[c])
        np.copyto(up[c], np.greater(b[c], cut_c, out=ws.hit[:c.stop - c.start]),
                  where=spread(on_t))
    return up


def chunked_partition(a, b, up, parts, keep=None):
    """Move each node's members to its two children, keeping their order.

    ``up`` marks the entries going up (``_goes_up``).  With ``keep`` =
    (lower, upper) flags per node, the members of a child whose flag is off
    are dropped.  Returns both coordinate arrays, holding every kept lower
    child's members node by node and then every kept upper child's.
    """
    out: list[list[np.ndarray]] = [[], [], [], []]
    for c, spread in parts:
        a_c, b_c, go = a[c], b[c], up[c]
        for side, moved in enumerate((~go, go)):
            if keep is not None:
                moved = moved & spread(keep[side])
            idx = moved.nonzero()[0]
            out[side].append(a_c[idx])
            out[side + 2].append(b_c[idx])
    return np.concatenate(out[0] + out[1]), np.concatenate(out[2] + out[3])


def check_partition(binning, z):
    """Assert the partition invariants of acceptance criterion 7.

    Every bin has ordered bounds, depth >= 0, its members inside ``(lower,
    upper]`` on both margins and ``expected == area / n``; below the root
    it expects at least ``z``.  The bins tile the n x n rank square without
    overlap and hold every point once, and their expectations sum to n.
    """
    n, bins = binning.n, binning.bins
    assert sum(b.observed for b in bins) == n
    assert sum(b.area for b in bins) == n * n
    assert abs(sum(b.expected for b in bins) - n) <= 1e-9 * n
    grid = np.zeros((n, n), dtype=int)
    for b in bins:
        assert b.lower_s < b.upper_s and b.lower_t < b.upper_t and b.depth >= 0
        assert b.points_s.size == b.points_t.size
        assert np.all((b.points_s > b.lower_s) & (b.points_s <= b.upper_s))
        assert np.all((b.points_t > b.lower_t) & (b.points_t <= b.upper_t))
        assert math.isclose(b.expected, b.area / n, rel_tol=1e-12)
        if b.depth > 0:
            assert b.expected >= z
        grid[b.lower_s:b.upper_s, b.lower_t:b.upper_t] += 1
    assert np.all(grid == 1)


def chi_cell(o: float, e: float) -> float:
    return (o - e) ** 2 / e


def two_child_sum(kind: str, o1: int, e1: float, o2: int, e2: float, z: float) -> float:
    """Direct two-child score with the size gate; no recurrence."""
    if e1 < z or e2 < z or e1 <= 0 or e2 <= 0:
        return 0.0
    if kind == "chi":
        return chi_cell(o1, e1) + chi_cell(o2, e2)
    o = o1 + o2
    t1 = (o1 / o) * np.log(o1 / e1) if o1 > 0 else 0.0
    t2 = (o2 / o) * np.log(o2 / e2) if o2 > 0 else 0.0
    return t1 + t2


def brute_force_scores(kind, w, e, z):
    """Score every interior candidate of w by direct counting.

    The member coordinates are w[2:-1]; each candidate splits at w[i] with
    the members at the split line counted below.
    """
    w = np.asarray(w, dtype=float)
    members = w[2:-1]
    density = e / (w[-1] - w[0])
    out = []
    for c in w[1:-1]:
        if c >= w[-1]:
            # a cut on the upper bound leaves a zero-width upper child,
            # gated whatever e - e1 rounds to
            out.append(0.0)
            continue
        e1 = (c - w[0]) * density
        o1 = int(np.count_nonzero(members <= c))
        o2 = members.size - o1
        out.append(two_child_sum(kind, o1, e1, o2, e - e1, z))
    return np.array(out)


def evaluation_sites(lower, upper, coords, e, z):
    """Cuts at which the gated two-child score can peak along one margin.

    For a margin ``(lower, upper]`` with sorted member ``coords``, expected
    count ``e`` and gate ``z > 0``.  Between neighbouring candidates the
    lower count is fixed and the score is convex in the cut, so over any
    stretch of gate-passing cuts with one lower count it peaks at an end of
    the stretch.  Such an end is one of:

    * a candidate counted as the library counts it, with the point on the
      cut in the lower child;
    * a candidate counted from the other side: the left limit of the score
      at that coordinate;
    * a gate boundary, where ``e1 == z`` or ``e2 == z``.

    Returns a list of rows ``(c, e1, e2, o1, k)``: the cut coordinate, both
    child expectations, the lower count, and the candidate index ``k`` when
    the row is the library's own evaluation of candidate ``k`` (else -1).
    """
    dens = e / (upper - lower)
    rows = []
    cands = np.concatenate(([coords[0] - 1], coords)).astype(float)
    for k, c in enumerate(cands):
        e1 = (c - lower) * dens
        rows.append((c, e1, e - e1, int(np.count_nonzero(coords <= c)), k))
        rows.append((c, e1, e - e1, int(np.count_nonzero(coords < c)), -1))
    for e1, e2 in ((z, e - z), (e - z, z)):
        c = lower + e1 / dens
        for o1 in (int(np.count_nonzero(coords <= c)),
                   int(np.count_nonzero(coords < c))):
            rows.append((c, e1, e2, o1, -1))
    return rows


def random_bin_setup(rng, min_pts=5, max_pts=200):
    """Random margin geometry: (lower, upper, sorted coords, expected)."""
    lower = int(rng.integers(0, 1000))
    side = int(rng.integers(10, 3000))
    upper = lower + side
    o = min(int(rng.integers(min_pts, max_pts + 1)), side)
    coords = np.sort(rng.choice(np.arange(lower + 1, upper + 1), size=o, replace=False))
    e = float(rng.uniform(10.0, max(20.0, 3.0 * o)))
    return lower, upper, coords, e


def replay_partitions(pair, kind, depths, stop, z, seed):
    """Partitions per depth limit from a grown tree and a per-limit replay.

    A second bookkeeping for ``bin_pair_by_depth``: grow once under the
    deepest limit with the per-bin splitter, recording each node's children
    by tree id, then re-run the freeze/split rounds for each limit over that
    tree.  Node ``k``'s split draws from the substream ``(seed, k)``.  A
    node with children passed every stop criterion but depth, so under a
    shallower limit only its depth can freeze it.  Returns
    ``{depth: Binning}``.
    """
    def grow(cfg):
        root = (Bin(0, pair.n, 0, pair.n, pair.s, pair.t, float(pair.n), 0), 1)
        children = {}
        active = [root]
        while active:
            nxt = []
            for b, nid in active:
                if (b.depth >= cfg.max_depth or b.expected <= cfg.min_expected
                        or b.observed == 0):
                    continue
                rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, nid)))
                kids = per_bin_max_score_split(b, kind, z, rng)
                if kids is not None:
                    children[nid] = ((kids[0], 2 * nid), (kids[1], 2 * nid + 1))
                    nxt += children[nid]
            active = nxt
        return root, children

    def replay(root, children, cfg):
        def frozen_at(nd):
            return nd[0].depth >= cfg.max_depth or nd[1] not in children

        nodes = [root]
        stopped = [frozen_at(root)]
        while not all(stopped):
            done = [nd for nd, st in zip(nodes, stopped) if st]
            fresh = []
            for nd, st in zip(nodes, stopped):
                if not st:
                    lo, hi = children[nd[1]]
                    fresh.append(lo)
                    fresh.append(hi)
            nodes = done + fresh
            stopped = [True] * len(done) + [frozen_at(nd) for nd in fresh]
        return [nd[0] for nd in nodes]

    cfgs = [StopConfig(d, stop.min_expected) for d in sorted(set(depths))]
    root, children = grow(cfgs[-1])
    return {
        cfg.max_depth: Binning(bins=replay(root, children, cfg), score_kind=kind,
                               stop=cfg, min_split_expected=z, seed=seed, n=pair.n)
        for cfg in cfgs
    }


# ---------------------------------------------------------------------------
# The per-bin engine: one Bin and one scorer call per margin per bin, grown
# breadth first.  This is the growth path the level-synchronous engine
# replaced, kept verbatim as its byte-for-byte reference.


def _lower_expected(coord, lower, upper, e):
    return (coord - lower) * (e / (upper - lower))


def per_bin_score(w, e, z, kind, rng=None):
    """Gated scores and size-gate indicator per candidate of one margin."""
    inner = w[1:-1]
    e_lo = _lower_expected(inner, w[0], w[-1], e)
    e_hi = e - e_lo
    ok = (e_lo >= z) & (e_hi >= z) & (e_lo > 0) & (e_hi > 0) & (inner < w[-1])
    if kind == "random":
        return np.where(ok, rng.random(ok.size), 0.0), ok
    if kind not in ("chi", "mi"):
        raise ValueError(f"unknown score kind {kind!r}")
    o = ok.size - 1
    scores = np.zeros(o + 1)
    lo, hi = e_lo[ok], e_hi[ok]
    olo = np.arange(o + 1, dtype=float)[ok]
    if kind == "chi":
        scores[ok] = (olo - lo) ** 2 / lo + (o - olo - hi) ** 2 / hi
        return scores, ok
    ohi = o - olo
    term_lo = np.zeros(olo.size)
    term_hi = np.zeros(olo.size)
    pos = olo > 0
    term_lo[pos] = (olo[pos] / o) * np.log(olo[pos] / lo[pos])
    pos = ohi > 0
    term_hi[pos] = (ohi[pos] / o) * np.log(ohi[pos] / hi[pos])
    scores[ok] = term_lo + term_hi
    return scores, ok


def per_bin_split_at(b, margin, coord):
    """Children of ``b`` cut at ``coord``; points keep their order."""
    lower = b.lower_s if margin == "s" else b.lower_t
    upper = b.upper_s if margin == "s" else b.upper_t
    assert lower < coord < upper
    coords = b.points_s if margin == "s" else b.points_t
    below = coords <= coord
    e_lo = _lower_expected(coord, lower, upper, b.expected)
    e_hi = b.expected - e_lo
    if margin == "s":
        lo = Bin(b.lower_s, coord, b.lower_t, b.upper_t,
                 b.points_s[below], b.points_t[below], e_lo, b.depth + 1)
        hi = Bin(coord, b.upper_s, b.lower_t, b.upper_t,
                 b.points_s[~below], b.points_t[~below], e_hi, b.depth + 1)
    else:
        lo = Bin(b.lower_s, b.upper_s, b.lower_t, coord,
                 b.points_s[below], b.points_t[below], e_lo, b.depth + 1)
        hi = Bin(b.lower_s, b.upper_s, coord, b.upper_t,
                 b.points_s[~below], b.points_t[~below], e_hi, b.depth + 1)
    return lo, hi


def _halve_coord(lower, upper):
    return (lower + upper + 1) // 2


def _halving_ok(b, margin, z):
    if margin == "s":
        lower, upper, side = b.lower_s, b.upper_s, b.side_s
    else:
        lower, upper, side = b.lower_t, b.upper_t, b.side_t
    if side < 2:
        return False
    if z <= 0:
        return True
    e_lo = _lower_expected(_halve_coord(lower, upper), lower, upper, b.expected)
    return e_lo >= z and b.expected - e_lo >= z


def _margin_summary(scores, ok):
    if not ok.any():
        return True, 0.0, -1
    idx = np.flatnonzero(ok)
    vals = scores[idx]
    k = int(np.argmax(vals))
    flat = bool(idx.size > 1 and np.all(vals == vals[0]))
    return flat, float(vals[k]), int(idx[k])


def per_bin_max_score_split(b, kind, z, rng):
    """Score both margins of one bin and split it; None if unsplittable."""
    margins = []
    for lower, coords, upper in ((b.lower_s, b.points_s, b.upper_s),
                                 (b.lower_t, b.points_t, b.upper_t)):
        coords = np.sort(coords)
        w = np.concatenate(([lower, coords[0] - 1], coords, [upper])).astype(float)
        margins.append((w, *_margin_summary(*per_bin_score(w, b.expected, z, kind, rng))))
    (w_s, s_flat, s_best, s_idx), (w_t, t_flat, t_best, t_idx) = margins
    if s_flat and t_flat:
        if s_best > t_best:
            margin = "s"
        elif s_best < t_best:
            margin = "t"
        else:
            margin = "s" if rng.random() < 0.5 else "t"
        other = "t" if margin == "s" else "s"
        if not _halving_ok(b, margin, z):
            if not _halving_ok(b, other, z):
                return None
            margin = other
        if margin == "s":
            return per_bin_split_at(b, "s", _halve_coord(b.lower_s, b.upper_s))
        return per_bin_split_at(b, "t", _halve_coord(b.lower_t, b.upper_t))
    if t_idx < 0 or (s_idx >= 0 and s_best >= t_best):
        return per_bin_split_at(b, "s", int(w_s[1 + s_idx]))
    return per_bin_split_at(b, "t", int(w_t[1 + t_idx]))


def per_bin_partitions(pair, kind, depths, stop, z, seed):
    """``bin_pair_by_depth`` by the per-bin engine: ``{depth: Binning}``.

    Grows the tree breadth first under the deepest limit, one bin at a
    time, node ``k`` drawing from the substream ``(seed, k)``, and reads
    limit ``d``'s partition off it: every node at depth ``d`` and every
    leaf above it, in breadth-first order.
    """
    depths = sorted(set(depths))
    cfg = StopConfig(depths[-1], stop.min_expected)
    nodes = []
    level = [(Bin(0, pair.n, 0, pair.n, pair.s, pair.t, float(pair.n), 0), 1)]
    while level:
        nxt = []
        for b, nid in level:
            if b.depth >= cfg.max_depth or b.expected <= cfg.min_expected or b.observed == 0:
                nodes.append((b, True))
                continue
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, nid)))
            kids = per_bin_max_score_split(b, kind, z, rng)
            nodes.append((b, kids is None))
            if kids is not None:
                nxt += [(kids[0], 2 * nid), (kids[1], 2 * nid + 1)]
        level = nxt
    return {
        d: Binning(
            bins=[b for b, leaf in nodes if b.depth == d or (leaf and b.depth < d)],
            score_kind=kind, stop=StopConfig(d, stop.min_expected),
            min_split_expected=z, seed=seed, n=pair.n)
        for d in depths
    }


def _widened_window(gap, window, min_count):
    """Mask of entries with ``gap <= w``, widening ``w`` from ``window``.

    ``w`` grows one step at a time until the mask holds ``min_count``
    entries or ``w`` reaches the largest gap.
    """
    w = window
    sel = gap <= w
    max_gap = int(gap.max())
    while w < max_gap and int(sel.sum()) < min_count:
        w += 1
        sel = gap <= w
    return sel


def per_record_p(null, observed, window=2):
    """``stats.empirical_p`` one record at a time, by masks over the table.

    A window that captures nothing widens one step at a time until it
    holds 100 entries or spans the table.
    """
    if null.size == 0:
        raise ValueError("empty null table")
    obs_nb, obs_chi2 = int(observed[0]), float(observed[1])
    if window < 0:
        raise ValueError("window must be >= 0")
    if obs_nb < 1 or not np.isfinite(obs_chi2):
        raise ValueError(f"observed n_bin={obs_nb}, chi2={obs_chi2}: "
                         "need n_bin >= 1 and a finite chi2")
    gap = np.abs(null.n_bins - obs_nb)
    in_win = gap <= window
    if not in_win.any():
        in_win = _widened_window(gap, window, 100)
    n_ref = int(in_win.sum())
    n_ge = int(np.count_nonzero(null.chi2s[in_win] >= obs_chi2))
    return (1 + n_ge) / (1 + n_ref)


def per_pair_seed(base_seed, ia, ib):
    """A scan pair's binning seed from its own ``SeedSequence``: the first
    64-bit word of stream 2."""
    ss = np.random.SeedSequence(entropy=(base_seed, ia, ib), spawn_key=(2,))
    return int(ss.generate_state(1, np.uint64)[0])


def per_bin_draws(seed, node_id, count):
    """The first ``count`` draws of a bin's substream, from its own ``Generator``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, node_id))).random(count)


def stream_draws(rng_of):
    """``draws`` for ``best_splits``: the next ``counts[i]`` draws of bin
    ``js[i]``'s own stream ``rng_of(js[i])``, bin after bin."""
    return lambda js, counts: np.concatenate(
        [np.empty(0)] + [rng_of(j).random(c) for j, c in zip(js.tolist(), counts.tolist())])


def per_pair_scan(table, kind, stop, z, base_seed, null, window=2):
    """``scan_pairs`` one pair at a time: one ``bin_pair`` and one
    ``chi2_statistic`` per pair.

    Pair (a, b) of column indices draws from ``SeedSequence((base_seed, a,
    b)).spawn(3)``: the first child ranks column a, the second column b, and
    the third's first 64-bit word seeds the binning.
    """
    names, cols = list(table), list(table.values())
    records = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            ss_a, ss_b, ss_bin = np.random.SeedSequence(entropy=(base_seed, a, b)).spawn(3)
            s = rank(cols[a], np.random.default_rng(ss_a))
            t = rank(cols[b], np.random.default_rng(ss_b))
            binning = bin_pair(RankedPair(s=s, t=t, n=s.size), kind, stop, z,
                               seed=int(ss_bin.generate_state(1, np.uint64)[0]))
            chi2, n_bin = chi2_statistic(binning)
            records.append(ScanRecord(names[a], names[b], n_bin, chi2,
                                      per_record_p(null, (n_bin, chi2), window=window)))
    records.sort(key=lambda r: -r.chi2)
    return records


# ---------------------------------------------------------------------------
# The per-point layers as they were before they became array passes, kept
# verbatim as their byte-for-byte references: ``ranks.rank`` with the stable
# sort alone, ``bins.binning_to_json`` formatting each bin on its own,
# ``plotting.render_binning`` formatting every rect and both coordinates of
# every point on their own, with the per-bin residual and colour, the
# statistics summed bin by bin, and the growth that carried every member in
# original order, read into ``Bin``s level by level.


def per_bin_chi2(binning: Binning) -> tuple[float, int]:
    """Chi-squared statistic over the final bins and the bin count."""
    total = 0.0
    for b in binning.bins:
        if b.expected == 0:
            raise RuntimeError("bin with zero expected count")
        d = b.observed - b.expected
        total += d * d / b.expected
    return total, binning.n_bin


def per_bin_residuals(binning: Binning) -> np.ndarray:
    """Signed square roots of the per-bin chi contributions, in bin order."""
    out = np.empty(binning.n_bin)
    for i, b in enumerate(binning.bins):
        d = b.observed - b.expected
        out[i] = np.sign(d) * np.sqrt(d * d / b.expected)
    return out


def _lerp_from_white(target: tuple[int, int, int], t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    channels = (round(255 + (c - 255) * t) for c in target)
    return "#" + "".join(f"{c:02X}" for c in channels)


def _num(x: float) -> str:
    return format(x, ".6f").rstrip("0").rstrip(".")


def stable_rank(values, rng: np.random.Generator) -> np.ndarray:
    """Rank a sample onto 1..n, breaking ties uniformly at random.

    An untied value receives the count of elements less than or equal to it.
    A run of m tied values receives its m consecutive ranks in an order
    drawn uniformly from the m! arrangements, using ``rng``.

    Raises ``ValueError`` on empty input or non-finite values.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if v.size == 0:
        raise ValueError("cannot rank an empty sequence")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot rank non-finite values")
    n = v.size
    # Stable-sorting a randomly shuffled copy keeps untied values in order
    # while randomizing each tied run uniformly.
    shuffle = rng.permutation(n)
    order = np.argsort(v[shuffle], kind="stable")
    out = np.empty(n, dtype=np.int64)
    out[shuffle[order]] = np.arange(1, n + 1)
    return out


def per_bin_json(binning: Binning) -> str:
    """Serialize a Binning to its canonical JSON document.

    The field order is fixed and reals carry 17 significant digits, so equal
    binnings serialize to byte-identical documents.
    """
    stop = binning.stop
    head = (
        f'{{"n":{binning.n},'
        f'"score_kind":"{binning.score_kind}",'
        f'"seed":{binning.seed},'
        f'"stop":{{"max_depth":{stop.max_depth},'
        f'"min_expected":{_fmt_real(stop.min_expected)},'
        f'"stop_empty":true}},'
        f'"bins":['
    )
    parts = []
    for b in binning.bins:
        # the repr of a list of ints, spaces removed: one C call per list
        ps = str(b.points_s.tolist())[1:-1].replace(" ", "")
        pt = str(b.points_t.tolist())[1:-1].replace(" ", "")
        parts.append(
            f'{{"ls":{b.lower_s},"us":{b.upper_s},'
            f'"lt":{b.lower_t},"ut":{b.upper_t},'
            f'"depth":{b.depth},'
            f'"expected":{_fmt_real(b.expected)},'
            f'"observed":{b.observed},'
            f'"points_s":[{ps}],"points_t":[{pt}]}}'
        )
    return head + ",".join(parts) + "]}"


def per_point_render(
    binning: Binning,
    fill: str = "residual",
    show_points: bool = False,
    max_abs_residual: float | None = None,
    size: int = 500,
) -> str:
    """Render a binning as an SVG document string.

    ``max_abs_residual`` overrides the residual normalization so a set of
    plots can share one hue range; it is ignored for other fill modes.
    """
    if fill not in FILL_MODES:
        raise ValueError(f"fill must be one of {FILL_MODES}")
    n = binning.n
    scale = size / n

    def sx(v: float) -> float:
        return v * scale

    def sy(v: float) -> float:
        # rank t increases upward; SVG y increases downward
        return (n - v) * scale

    if fill == "residual":
        resid = per_bin_residuals(binning)
        rmax = max_abs_residual
        if rmax is None:
            rmax = float(max(abs(resid.max()), abs(resid.min()), 0.0))
    elif fill == "depth":
        depth_norm = max(binning.stop.max_depth, 1)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
    ]
    for i, b in enumerate(binning.bins):
        if fill == "none":
            color = "#FFFFFF"
        elif fill == "depth":
            color = _lerp_from_white(DEPTH_HUE, b.depth / depth_norm)
        else:
            if rmax > 0:
                r = resid[i]
                hue = POSITIVE_HUE if r > 0 else NEGATIVE_HUE
                color = _lerp_from_white(hue, abs(r) / rmax)
            else:
                color = "#FFFFFF"
        x0, x1 = sx(b.lower_s), sx(b.upper_s)
        y0, y1 = sy(b.upper_t), sy(b.lower_t)
        out.append(
            f'<rect x="{_num(x0)}" y="{_num(y0)}" '
            f'width="{_num(x1 - x0)}" height="{_num(y1 - y0)}" '
            f'fill="{color}" stroke="#333333" stroke-width="0.5"/>'
        )
    if show_points and binning.bins:
        # int64 ranks times a float: the same float64 values as sx and sy
        xs = np.concatenate([b.points_s for b in binning.bins]) * scale
        ys = (n - np.concatenate([b.points_t for b in binning.bins])) * scale
        out += [f'<circle cx="{_num(x)}" cy="{_num(y)}" r="1.5" fill="#000000"/>'
                for x, y in zip(xs.tolist(), ys.tolist())]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def whole_level_read_bins(kind, stop, z, levels, pairs, seeds, depths) -> list[dict[int, Binning]]:
    """The ``Bin`` reader: each tree's ``Binning`` under every limit.

    A taken node's ``Bin`` is built once, whichever partitions list it, and
    holds its members in their original order.
    """
    def take(lv, keep):
        points_s = lv.points_s.astype(np.int64)
        points_t = lv.points_t.astype(np.int64)
        start = (np.cumsum(lv.observed) - lv.observed)[keep]
        rows = zip(lv.lower_s[keep].tolist(), lv.upper_s[keep].tolist(),
                   lv.lower_t[keep].tolist(), lv.upper_t[keep].tolist(),
                   lv.expected[keep].tolist(), start.tolist(),
                   (start + lv.observed[keep]).tolist())
        return [Bin(ls, us, lt, ut, points_s[a:b], points_t[a:b], e, lv.depth)
                for ls, us, lt, ut, e, a, b in rows]

    taken, root, listed, start = read_off(levels, depths, take)
    bins = [b for level in taken for b in level]
    out: list[dict[int, Binning]] = [{} for _ in pairs]
    for d, part in zip(depths, np.split(listed, start[1:-1])):
        bounds = np.searchsorted(root[part], np.arange(len(pairs) + 1)).tolist()
        for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
            out[r][d] = Binning(bins=[bins[i] for i in part[a:b].tolist()], score_kind=kind,
                                stop=StopConfig(d, stop.min_expected),
                                min_split_expected=z, seed=seeds[r], n=pairs[r].n)
    return out


class PointsLevel(NamedTuple):
    """``engine.Level`` of the growth that carried the members in original
    order: node j's ``observed[j]`` members are the next ones of
    ``points_s``/``points_t``."""

    depth: int
    lower_s: np.ndarray
    upper_s: np.ndarray
    lower_t: np.ndarray
    upper_t: np.ndarray
    expected: np.ndarray
    observed: np.ndarray
    leaf: np.ndarray
    root: np.ndarray
    node_id: np.ndarray
    points_s: np.ndarray
    points_t: np.ndarray


def _goes_up(order, cnt, on_t, cut):
    """``engine._goes_up`` as it was when ``points_grow_levels`` was current:
    it spreads node j's ``on_t[j]`` and ``cut[j]`` over its ``cnt[j]`` members."""
    return np.where(on_t.repeat(cnt), order[1], order[0]) > cut.repeat(cnt)


def _partition(order, up, cnt, keep_lo, keep_up):
    """``engine._partition`` as it was then, spreading ``keep_lo`` and
    ``keep_up`` over each node's members."""
    idx = np.concatenate((np.flatnonzero(~up & keep_lo.repeat(cnt)),
                          np.flatnonzero(up & keep_up.repeat(cnt))))
    return order.take(idx, axis=1)


def points_grow_levels(pairs, seeds, kind, max_depth, min_expected, z):
    """``engine.grow_levels`` carrying a third member order, in original
    index order, moved to the children at every split."""
    def stopped(e, cnt, depth):
        return (e <= min_expected) | (cnt == 0) | (depth >= max_depth)

    cnt = np.array([p.n for p in pairs], dtype=np.int64)
    lo_s, hi_s, lo_t, hi_t = np.zeros_like(cnt), cnt, np.zeros_like(cnt), cnt
    e = cnt.astype(float)
    root = np.arange(cnt.size)
    ids = np.ones(cnt.size, dtype=np.int64 if max_depth < 62 else object)
    depth = 0
    stop = stopped(e, cnt, depth)
    coord = np.int32 if cnt.sum() < 2**31 else np.int64
    ws = Workspace()
    by_i = np.array([np.concatenate([p.s for p in pairs]),
                     np.concatenate([p.t for p in pairs])], dtype=coord)
    slot = np.repeat(np.cumsum(cnt) - cnt, cnt)
    by_s, by_t = np.empty_like(by_i), np.empty_like(by_i)
    by_s[:, slot + by_i[0] - 1] = by_i
    by_t[:, slot + by_i[1] - 1] = by_i
    if stop.any():
        live = np.repeat(~stop, cnt)
        by_s, by_t = by_s.compress(live, axis=1), by_t.compress(live, axis=1)

    while True:
        act = np.flatnonzero(~stop)
        ok = np.zeros(act.size, dtype=bool)
        if act.size:
            ok, on_t, cut = best_splits(
                lo_s[act], hi_s[act], lo_t[act], hi_t[act], e[act], cnt[act],
                by_s[0], by_t[1], kind, z, stream_draws(lambda j: np.random.default_rng(
                    np.random.SeedSequence((seeds[root[act[j]]], ids[act[j]])))), ws)
            on_t, cut = on_t[ok], cut[ok]
        split = act[ok]
        leaf = np.ones(cnt.size, dtype=bool)
        leaf[split] = False
        yield PointsLevel(depth, lo_s, hi_s, lo_t, hi_t, e, cnt, leaf, root, ids, *by_i)
        if not split.size:
            return

        k = split.size
        node_t = np.zeros(cnt.size, dtype=bool)
        node_t[split] = on_t
        node_cut = np.zeros(cnt.size, dtype=coord)
        node_cut[split] = cut
        by_i = _partition(by_i, _goes_up(by_i, cnt, node_t, node_cut), cnt, ~leaf, ~leaf)
        act_cnt, act_t, act_cut = cnt[act], node_t[act], node_cut[act]
        up_s = _goes_up(by_s, act_cnt, act_t, act_cut)
        n_up = np.add.reduceat(up_s, np.cumsum(act_cnt) - act_cnt, dtype=np.intp)[ok]
        kid_cnt = np.concatenate((cnt[split] - n_up, n_up))
        e_lo = lower_expected(cut, np.where(on_t, lo_t[split], lo_s[split]),
                              np.where(on_t, hi_t[split], hi_s[split]), e[split])
        kid_e = np.concatenate((e_lo, e[split] - e_lo))
        kid_stop = stopped(kid_e, kid_cnt, depth + 1)
        if not kid_stop.all():
            keep_lo = np.zeros(act.size, dtype=bool)
            keep_up = np.zeros(act.size, dtype=bool)
            keep_lo[ok] = ~kid_stop[:k]
            keep_up[ok] = ~kid_stop[k:]
            by_s = _partition(by_s, up_s, act_cnt, keep_lo, keep_up)
            by_t = _partition(by_t, _goes_up(by_t, act_cnt, act_t, act_cut), act_cnt,
                              keep_lo, keep_up)

        on_s = ~on_t
        lo_s, hi_s, lo_t, hi_t = (
            np.concatenate((lo_s[split], np.where(on_s, cut, lo_s[split]))),
            np.concatenate((np.where(on_s, cut, hi_s[split]), hi_s[split])),
            np.concatenate((lo_t[split], np.where(on_t, cut, lo_t[split]))),
            np.concatenate((np.where(on_t, cut, hi_t[split]), hi_t[split])),
        )
        ids = np.concatenate((2 * ids[split], 2 * ids[split] + 1))
        root = np.tile(root[split], 2)
        e, cnt, stop = kid_e, kid_cnt, kid_stop
        depth += 1


def points_tree_binnings(pairs, seeds, depths, kind, stop, z) -> list[dict[int, Binning]]:
    """``engine.tree_binnings`` of ``pairs`` grown as one batch by the growth
    that carried the members in original order, read into ``Bin``s."""
    depths = sorted(set(depths))
    levels = points_grow_levels(pairs, seeds, kind, depths[-1], stop.min_expected, z)
    return whole_level_read_bins(kind, stop, z, levels, pairs, seeds, depths)
