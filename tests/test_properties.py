"""Property tests of the growth path on small and odd inputs.

Tiny n, z = 0, ``min_expected`` = 0, a diagonal (t = s) pair whose every
split looks alike, and heavily tied raw data.  Each case checks that a
single-depth run equals the same depth read off a depth sweep byte for
byte, that both equal the per-limit replay oracle and the per-bin engine,
and the partition invariants of acceptance criterion 7.  Growth is checked
level by level against the growth that carried the points in original
order, the columnar ``Binning``s, their JSON, SVG and statistics against
that growth's ``Bin``s and the per-bin writers, the statistics reader
against the ``Bin`` reader on the same trees, the
batched null simulation row for row against the per-bin engine, the
batched scan against one ``bin_pair`` per pair, ``load_matrix``
against its per-cell ``csv`` loop, and its decimal parser against
``float()``.
"""

import numpy as np
import pytest
from _oracles import (
    check_partition,
    per_bin_chi2,
    per_bin_json,
    per_bin_partitions,
    per_bin_residuals,
    per_pair_scan,
    per_point_render,
    points_grow_levels,
    points_tree_binnings,
    replay_partitions,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rankbin import (
    NullTable,
    StopConfig,
    bin_pair,
    bin_pair_by_depth,
    binning_to_json,
    chi2_statistic,
    mi_statistic,
    pearson_residuals,
    records_to_csv,
    render_binning,
    scan_pairs,
    simulate_null,
)
from rankbin.ranks import RankedPair, rank_pair
from rankbin.engine import BATCH, _read_bins, grow_levels, tree_binnings
from rankbin import plaincsv
from rankbin.plaincsv import _read_plain
from rankbin.plotting import FILL_MODES, render_binnings
from rankbin.scan import _read_cells, load_matrix
from rankbin.stats import _read_statistics


def _pair(shape: str, n: int, seed: int) -> RankedPair:
    rng = np.random.default_rng(seed)
    if shape == "diagonal":
        s = rng.permutation(n) + 1
        return RankedPair(s=s, t=s.copy(), n=n)
    if shape == "tied":
        # four distinct values per margin: ranks come from tie-breaking draws
        return rank_pair(rng.integers(0, 4, n), rng.integers(0, 4, n), rng)
    return RankedPair(s=rng.permutation(n) + 1, t=rng.permutation(n) + 1, n=n)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 60),
    shape=st.sampled_from(["random", "diagonal", "tied"]),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 2.0, 5.0]),
    min_expected=st.sampled_from([0.0, 10.0]),
    depth=st.integers(0, 8),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
# z = 0 runs that once chose a cut on a bin's upper bound, where the upper
# child's expected count had rounded to 2e-16 instead of 0, and crashed
@example(n=27, shape="diagonal", kind="chi", z=0.0, min_expected=0.0,
         depth=8, data_seed=0, seed=0)
@example(n=44, shape="diagonal", kind="random", z=0.0, min_expected=0.0,
         depth=5, data_seed=0, seed=268435457)
def test_single_depth_matches_sweep_and_partitions(
    n, shape, kind, z, min_expected, depth, data_seed, seed
):
    pair = _pair(shape, n, data_seed)
    stop = StopConfig(max_depth=depth, min_expected=min_expected)
    sweep = bin_pair_by_depth(pair, kind, range(depth + 1), stop, z=z, seed=seed)
    assert sorted(sweep) == list(range(depth + 1))
    oracle = replay_partitions(pair, kind, range(depth + 1), stop, z, seed)
    for d, binning in sweep.items():
        single = bin_pair(pair, kind, StopConfig(d, min_expected), z=z, seed=seed)
        assert binning_to_json(single) == binning_to_json(binning)
        assert binning_to_json(oracle[d]) == binning_to_json(binning)
        check_partition(binning, z)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 300),
    shape=st.sampled_from(["random", "diagonal", "tied"]),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 0.5, 2.0, 2.5, 5.0, 1e300]),
    min_expected=st.sampled_from([0.0, 10.0]),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=27, shape="diagonal", kind="chi", z=0.0, min_expected=0.0,
         data_seed=0, seed=0)
@example(n=44, shape="diagonal", kind="random", z=0.0, min_expected=0.0,
         data_seed=0, seed=268435457)
def test_level_engine_matches_per_bin_engine(
    n, shape, kind, z, min_expected, data_seed, seed
):
    pair = _pair(shape, n, data_seed)
    stop = StopConfig(max_depth=10, min_expected=min_expected)
    got = bin_pair_by_depth(pair, kind, range(11), stop, z=z, seed=seed)
    want = per_bin_partitions(pair, kind, range(11), stop, z, seed)
    for d in range(11):
        assert binning_to_json(got[d]) == binning_to_json(want[d])


def _per_bin_null(n, depths, kind, stop, z, n_sim, seed):
    """``simulate_null`` replicate by replicate through the per-bin engine."""
    rows = []
    for rep in range(n_sim):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep)))
        s = rng.permutation(n) + 1
        t = rng.permutation(n) + 1
        bin_seed = int(rng.integers(0, 2**63))
        parts = per_bin_partitions(RankedPair(s=s, t=t, n=n), kind, depths, stop,
                                   z, bin_seed)
        rows += [(d, *chi2_statistic(parts[d])[::-1]) for d in sorted(depths)]
    cols = np.array(rows, dtype=object).T
    return NullTable(n=n, depths=cols[0].astype(np.int64),
                     n_bins=cols[1].astype(np.int64), chi2s=cols[2].astype(float))


@pytest.mark.parametrize("n, depths, kind, min_expected, z, n_sim, workers", [
    # two batches, the second partly filled
    (1000, range(2, 11), "chi", 10.0, 5.0, BATCH // 1000 + 3, 1),
    # one replicate larger than a batch
    (BATCH + 808, [2, 4], "random", 10.0, 5.0, 2, 1),
    # the smallest n, down to single points
    (2, [0, 1, 2], "mi", 0.0, 0.0, 7, 1),
    # batches spread over worker processes
    (300, [3, 6], "mi", 10.0, 2.0, 60, 4),
])
def test_batched_null_matches_per_bin_replicates(n, depths, kind, min_expected,
                                                 z, n_sim, workers):
    stop = StopConfig(max(depths), min_expected)
    got = simulate_null(n, depths, kind, stop, z=z, n_sim=n_sim, seed=13,
                        workers=workers)
    want = _per_bin_null(n, depths, kind, stop, z, n_sim, 13)
    assert got.to_csv_text() == want.to_csv_text()


def _scan_table(shapes, n, seed):
    rng = np.random.default_rng(seed)
    make = {"normal": lambda: rng.normal(size=n),
            "tied": lambda: rng.integers(0, 4, n).astype(float),
            "constant": lambda: np.full(n, 1.5)}
    return {f"c{i}": make[shape]() for i, shape in enumerate(shapes)}


def _scan_null(n, kind, stop, z, seed):
    """A synthetic null table whose recorded configuration matches the scan's."""
    rng = np.random.default_rng(seed)
    return NullTable(n=n, depths=np.full(200, stop.max_depth, dtype=np.int64),
                     n_bins=rng.integers(1, 40, 200), chi2s=rng.uniform(0, 60, 200),
                     config={"kind": kind, "z": z, "min_expected": stop.min_expected,
                             "stop_empty": True, "depths": [stop.max_depth]})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    trees=st.lists(st.tuples(st.integers(1, 60),
                             st.sampled_from(["random", "diagonal", "tied"]),
                             st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 2.0, 5.0]),
    min_expected=st.sampled_from([0.0, 10.0]),
    depth=st.integers(0, 8),
)
@example(trees=[(27, "diagonal", 0)], kind="chi", z=0.0, min_expected=0.0, depth=8)
def test_statistics_only_growth_matches_points_growth(trees, kind, z, min_expected, depth):
    # growth without a third member order grows the same nodes, level by
    # level, and each node's range of its parent's order holds its members
    pairs = [_pair(shape, n, seed) for n, shape, seed in trees]
    seeds = [seed for _, _, seed in trees]
    args = (pairs, seeds, kind, depth, min_expected, z)
    with_points = list(points_grow_levels(*args))
    bare = list(grow_levels(*args))
    assert len(bare) == len(with_points)
    for a, b in zip(bare, with_points):
        for field in ("depth", "lower_s", "upper_s", "lower_t", "upper_t", "expected",
                      "observed", "leaf", "root", "node_id"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.expected.tobytes() == b.expected.tobytes()
        ends = np.cumsum(b.observed).tolist()
        for j, (first, cnt, in_t) in enumerate(zip(a.first.tolist(), a.observed.tolist(),
                                                   a.in_t.tolist())):
            got = a.orders[in_t][:, first:first + cnt]
            # sorted by the order's margin, the members themselves
            assert np.all(np.diff(got[int(in_t)]) > 0)
            want = np.array([b.points_s[ends[j] - cnt:ends[j]], b.points_t[ends[j] - cnt:ends[j]]])
            assert np.array_equal(got[:, np.argsort(got[0])], want[:, np.argsort(want[0])])
        # a node id states the node's depth, and names one node of its tree
        assert all(int(i).bit_length() - 1 == a.depth for i in a.node_id)
        assert len(set(zip(a.root.tolist(), a.node_id.tolist()))) == a.root.size


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    trees=st.lists(st.tuples(st.sampled_from([1, 2, 7, 755]),
                             st.sampled_from(["random", "diagonal", "tied"]),
                             st.integers(0, 2**32 - 1)), min_size=1, max_size=3),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 5.0]),
    # 1000 freezes every root
    min_expected=st.sampled_from([0.0, 10.0, 1000.0]),
    depths=st.sets(st.sampled_from([0, 1, 3, 6, 10, 62]), min_size=1, max_size=3),
)
@example(trees=[(755, "random", 0), (7, "tied", 1)], kind="chi", z=0.0, min_expected=0.0,
         depths={3, 10, 62})
def test_columnar_binnings_match_points_growth(trees, kind, z, min_expected, depths):
    # the read-off from labelled slots, and the JSON, SVG and statistics of
    # its columns, equal byte for byte those of the growth that carried
    # every member in original order into per-bin Bins and per-bin writers;
    # limit 62 grows object node ids
    pairs = [_pair(shape, n, seed) for n, shape, seed in trees]
    seeds = [seed for _, _, seed in trees]
    stop = StopConfig(max(depths), min_expected)
    got = tree_binnings(lambda i: (pairs[i], seeds[i]), len(pairs), max(p.n for p in pairs),
                        depths, kind, min_expected, z)
    want = points_tree_binnings(pairs, seeds, depths, kind, stop, z)
    for d in sorted(depths):
        for g, w in zip((g[d] for g in got), (w[d] for w in want)):
            assert binning_to_json(g) == per_bin_json(g) == per_bin_json(w)
            chi2, n_bin = chi2_statistic(g)
            assert (np.float64(chi2).tobytes(), n_bin) == (np.float64(per_bin_chi2(w)[0]).tobytes(),
                                                          w.n_bin)
            assert pearson_residuals(g).tobytes() == per_bin_residuals(w).tobytes()
            assert mi_statistic(g) == mi_statistic(w)
            for fill in FILL_MODES:
                for points in (False, True):
                    assert (render_binning(g, fill, points)
                            == per_point_render(w, fill, points))
        # one hue range over the plots of every tree
        shared = max(float(np.max(np.abs(per_bin_residuals(w[d])))) for w in want)
        assert render_binnings([g[d] for g in got], show_points=True) == [
            per_point_render(w[d], "residual", True, max_abs_residual=shared) for w in want]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    trees=st.lists(st.tuples(st.integers(1, 300),
                             st.sampled_from(["random", "diagonal", "tied"]),
                             st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 5.0]),
    min_expected=st.sampled_from([0.0, 10.0]),
    depths=st.sets(st.integers(0, 8), max_size=4),
)
def test_both_readers_read_off_the_same_partitions(trees, kind, z, min_expected, depths):
    # 61, the deepest limit with int64 node ids, lies deeper than any of these
    # trees grows, and a small tree stops above the shallower limits
    depths = sorted(depths | {61})
    pairs = [_pair(shape, n, seed) for n, shape, seed in trees]
    seeds = [seed for _, _, seed in trees]
    args = (pairs, seeds, kind, depths[-1], min_expected, z)
    binnings = _read_bins(kind, min_expected, z, grow_levels(*args), pairs, seeds, depths)
    n_bins, chi2s = _read_statistics(grow_levels(*args), pairs, seeds, depths)
    assert len(binnings) == len(pairs)
    assert n_bins.shape == chi2s.shape == (len(pairs), len(depths))
    for r, by_depth in enumerate(binnings):
        assert list(by_depth) == depths
        assert max(b.depth for b in by_depth[61].bins) < 61
        for k, d in enumerate(depths):
            chi2, n_bin = chi2_statistic(by_depth[d])
            assert n_bin == n_bins[r, k]
            assert np.float64(chi2).view(np.int64) == chi2s[r, k].view(np.int64)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 300),
    shapes=st.lists(st.sampled_from(["normal", "tied", "constant"]),
                    min_size=2, max_size=12),
    kind=st.sampled_from(["chi", "mi", "random"]),
    z=st.sampled_from([0.0, 5.0]),
    min_expected=st.sampled_from([0.0, 10.0]),
    depth=st.integers(0, 8),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    workers=st.sampled_from([1, 2]),
)
# 45 pairs at 20 trees per batch: full batches and a partial one over 2 workers
@example(n=BATCH // 20, shapes=["normal", "tied", "constant", "normal", "normal"] * 2,
         kind="chi", z=5.0, min_expected=10.0, depth=6, data_seed=0, seed=0, workers=2)
# rows beyond one batch: every batch holds a single tree
@example(n=BATCH + 808, shapes=["normal", "tied", "constant"], kind="random",
         z=5.0, min_expected=10.0, depth=6, data_seed=1, seed=2, workers=1)
def test_batched_scan_matches_per_pair_scan(
    n, shapes, kind, z, min_expected, depth, data_seed, seed, workers
):
    table = _scan_table(shapes, n, data_seed)
    stop = StopConfig(max_depth=depth, min_expected=min_expected)
    null = _scan_null(n, kind, stop, z, data_seed)
    got = scan_pairs(table, kind, stop, z, seed, null, workers=workers)
    want = per_pair_scan(table, kind, stop, z, seed, null)
    assert records_to_csv(got) == records_to_csv(want)
    # the CSV rounds chi2 to 10 digits; the records hold it bit for bit
    assert got == want


# spellings float() reads and loadtxt may not, or that neither reads, or that
# read as non-finite
_SPELLINGS = ["1_0", " 1e3 ", "+.5", "-0", "-1e-400", "infinity", "nan", "-inf",
              "1e999", "\u0661\u0662", "\uff17", "\xa07", "\t2\t", "#",
              '"1.5"', '"1\n2"', "", " ", "0x10", "1d3", "x"]


@st.composite
def _csv_text(draw):
    """CSV text of repr floats, then up to three edits.

    Returns the text and whether it is plain (unedited, with a data row),
    which the fast path must accept.
    """
    ncol, nrow = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    lines = [[f"c{j}" for j in range(ncol)]]
    lines += [[repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
               for _ in range(ncol)] for _ in range(nrow)]
    edits = draw(st.lists(st.tuples(
        st.sampled_from(["cell"] * 3 + ["comment", "blank", "ragged", "comma", "quote",
                                         "dupe"]),
        st.integers(0, 99), st.integers(0, 99), st.sampled_from(_SPELLINGS)), max_size=3))
    for what, i, j, spelling in edits:
        line = lines[0 if what in ("quote", "dupe") else i % len(lines)]
        if what == "blank":
            lines.insert(1 + i % len(lines), [])
        elif not line:
            continue
        elif what == "cell":
            line[j % len(line)] = spelling
        elif what == "comment":  # a loadtxt that strips "#" comments reads 2#x as 2
            line[j % len(line)] += "#x"
        elif what == "ragged":
            del line[j % (len(line) + 1):]
        elif what == "comma":
            line.append("")
        elif what == "quote":
            line[j % len(line)] = f'"c\n{j}"' if i % 2 else f'"c{j}"'
        else:
            line[-1] = line[0]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(",".join(line) for line in lines) + draw(st.sampled_from([eol, ""]))
    return text, not edits and nrow > 0


def _outcome(read, path, caplog):
    caplog.clear()
    try:
        table = read(path)
    except Exception as exc:  # the loop's IngestionError, or what csv raises
        got = (type(exc).__name__, str(exc))
    else:
        # int64 views compare bits: -0.0 differs from 0.0
        got = [(name, col.dtype.str, col.shape, col.view(np.int64).tolist())
               for name, col in table.items()]
    return got, [r.getMessage() for r in caplog.records]


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_csv_text())
# a "#" comment, a blank line, a non-finite cell, CR line endings and -0.0
@example(case=("x,y\n1,2#3\n", False))
@example(case=("x,y\n1,2\n\n3,4\n", False))
@example(case=("x,y\r\n1,2\r\n3,nan\r\n", False))
@example(case=("x,y\r1,-0.0\r3,4", True))
def test_load_matrix_matches_cell_loop(case, tmp_path, caplog):
    text, plain = case
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    assert _outcome(load_matrix, path, caplog) == _outcome(lambda p: _read_cells(p)[1], path,
                                                            caplog)
    if plain:
        assert _read_plain(path) is not None


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_csv_text(), block=st.integers(1, 64))
# a CRLF across the first cut, and a line longer than a block
@example(case=("x,y\r\n1,2\r\n3,4\r\n", True), block=9)
@example(case=("x,y\n1.25,-2e-5\n3,4\n", True), block=3)
def test_load_matrix_blocks_match_the_cell_loop(case, block, tmp_path, caplog, monkeypatch):
    # small blocks cut the file at many line ends, and through long lines
    monkeypatch.setattr(plaincsv, "_BLOCK", block)
    text, plain = case
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    assert _outcome(load_matrix, path, caplog) == _outcome(lambda p: _read_cells(p)[1], path,
                                                            caplog)
    if plain:
        assert _read_plain(path) is not None


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _decimal(draw):
    """Digits with the point anywhere (or none), an optional sign and exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    at = draw(st.integers(0, len(digits)) | st.none())
    body = digits if at is None else f"{digits[:at]}.{digits[at:]}"
    sign = draw(st.sampled_from(["", "-"]))
    exp = draw(st.none() | st.integers(-350, 350))
    if exp is None:
        return sign + body
    mark = draw(st.sampled_from(["e", "E"]))
    plus = draw(st.sampled_from(["", "+"])) if exp >= 0 else ""
    return f"{sign}{body}{mark}{plus}{exp:0{draw(st.integers(1, 4))}d}"


_TOKENS = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda x: format(x, ".17e")),
    st.tuples(_FLOATS, st.integers(0, 20)).map(lambda xk: "%.*f" % (xk[1], xk[0])),
    _decimal(),
)
_PINNED = ["9007199254740993", "0.1", "1e23", "2.2250738585072011e-308",
           "4.9406564584124654e-324", "1.7976931348623157e308", "-0", "5.", ".5",
           "0.000123456789012345678",
           # just above a double midpoint, which the 64-bit rounding reaches:
           # converted from the long double they would round down
           "707.7880717698402009", "3179605624364390053e-16"]


def _parse(tokens, tables=None):
    """``plaincsv._parse_fields`` over the tokens laid out as one CSV line."""
    text = ",".join(tokens).encode()
    raw = bytearray(bytes(plaincsv._PAD) + text + b"\n")
    lengths = np.array([len(t.encode()) for t in tokens])
    stops = plaincsv._PAD + np.cumsum(lengths + 1) - 1
    return plaincsv._parse_fields(raw, np.frombuffer(raw, np.uint8), stops - lengths, stops,
                                  plaincsv._tables() if tables is None else tables)


@pytest.mark.parametrize("wide", [True, False])
@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(_TOKENS.filter(lambda t: np.isfinite(float(t))), min_size=1,
                       max_size=12))
@example(tokens=_PINNED)
@example(tokens=[t for t in _PINNED if t != "1.7976931348623157e308"] * 4)
# either side of the fast path's and the wide step's exponent limits
@example(tokens=["1e22", "-1e23", "1e27", "1e28", "-1e-27", "1e-28", "123456789012345678e-27",
                 "-123456789012345678e-28", "9007199254740993e22", "9007199254740993e-23"])
def test_decimal_parser_matches_float(tokens, wide, monkeypatch):
    # with the wide step switched off every value it would give comes from float()
    monkeypatch.setattr(plaincsv, "_WIDE", plaincsv._WIDE and wide)
    got = _parse(tokens)
    want = np.array([float(t) for t in tokens])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_decimal_parser_reads_its_grammar_without_float(monkeypatch):
    # m <= 2**53 and |q| <= 22 throughout; "7" and "2" follow exponents
    tokens = ["0", "-0", "7", "5.", ".5", "-.5", "1.5e-5", "-2.25E+3", "1e5", "7",
              "9007199254740992", "1e22", "-1e-22", "123.456", "0.000001", "3E-05", "2"]
    tables, calls = plaincsv._tables(), []
    monkeypatch.setattr(plaincsv, "float", lambda s: calls.append(s) or float(s), raising=False)
    got = _parse(tokens, tables)
    want = np.array([float(t) for t in tokens])
    assert calls == []
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("token", ["1e999", "-1e400", "inf", "nan", "1x", "1e", "--1", ".",
                                   "1.2.3", "\xff"])
def test_decimal_parser_declines_what_float_refuses_or_reads_as_non_finite(token):
    assert _parse(["1.5", token, "2"]) is None
