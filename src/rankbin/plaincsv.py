"""Plain numeric CSV at numpy speed: the fast path of ``scan.load_matrix``.

A vectorised tokeniser finds the field ends of the file's bytes in blocks of
whole lines and checks each block's shape; an exact decimal parser turns
each block's fields into float64 values equal to ``float()``'s bit for bit
(the grammar and the exactness argument are in ``load_matrix``'s
docstring).  Any file that is not plain, and any token ``float()`` refuses
or reads as non-finite, is declined: ``_read_plain`` returns None and the
per-cell ``csv`` loop in ``scan`` reads the file.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

_BLOCK = 1 << 16  # bytes per block of whole lines (one line if longer); temporaries grow with it
_PAD = 24  # bytes before the file in its buffer, so a 24-byte window ends at any field end
_ZEROS = 0x3030303030303030  # eight ASCII "0"


def _tables() -> tuple[np.ndarray, ...]:
    """The decimal parser's lookup tables, built for each file it reads.

    Masks of a 24-byte window are held as three little-endian words (column
    j in byte j % 8 of word j // 8).  Row k of ``tail`` keeps the last k
    bytes and ``last`` is their column bits; row p of ``upto`` keeps columns
    0..p, ``frac`` counts the columns after p and ``bit`` is column p's bit,
    where row -1 is no column.  ``p10`` and ``p10l`` hold 10**k and -10**k,
    exact doubles for k <= 22 and exact long doubles for k <= 27.
    """
    col, k = np.arange(24), np.arange(25)

    def words(keep):
        return (keep.astype(np.uint8) * 255).view("<u8")

    p10 = np.array([float(10**j) for j in range(23)])
    p10l = np.concatenate([[1], np.cumprod(np.full(27, 10, np.longdouble))])
    return (words(col >= 24 - k[:, None]),
            ((1 << 24) - (1 << (24 - k))).astype(np.uint64),
            words(col <= np.append(k[:-1], -1)[:, None]),
            np.append(23 - k[:-1], 0),
            np.append(1 << k[:-1], 0).astype(np.uint64),
            np.concatenate([p10, -p10]),
            np.concatenate([p10l, -p10l]))


def _wide_step() -> bool:
    """Whether numpy's long double is the little-endian x87 80-bit format:
    a 64-bit significand stored in the low word."""
    if np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16:
        return False
    return int(np.array([1.5], np.longdouble).view(np.uint64)[0]) == 0xC << 60


_WIDE = _wide_step()


def _eight(v):
    """Words of eight digit values, the first in the low byte, as the
    integers they spell; ``v`` is overwritten with the result."""
    t = v >> 8
    v *= 10
    v += t
    np.right_shift(v, 16, out=t)
    t &= 0x000000FF000000FF
    t *= 0x0000271000000001
    v &= 0x000000FF000000FF
    v *= 0x000F424000000064
    v += t
    v >>= 32
    return v


def _bits(mask) -> np.ndarray:
    """An (n, 8 * W) boolean array as n integers with bit j set where column j is."""
    w = mask.view(np.uint64) * 0x0102040810204080
    w >>= 56
    out = w[:, 0].copy()
    for j in range(1, w.shape[1]):
        out |= w[:, j] << 8 * j
    return out


def _read_plain(path) -> dict[str, np.ndarray] | None:
    """The fast path of ``load_matrix``; None declines the file."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            raw = bytearray(_PAD + size + 8)  # 8 more: a last line end, and look-ahead
            if fh.readinto(memoryview(raw)[_PAD:_PAD + size]) != size or fh.read(1):
                return None
    except OSError:
        return None
    end = _PAD + size
    if not size or b'"' in raw:
        return None
    if raw[end - 1] not in b"\r\n":  # end the last line
        raw[end] = 10
        end += 1
    lf, cr = raw.find(b"\n", _PAD, end), raw.find(b"\r", _PAD, end)
    head = min(i for i in (lf, cr) if i >= 0)
    cr = cr >= 0
    limit = csv.field_size_limit()
    try:
        names = [h.strip() for h in raw[_PAD:head].decode().split(",")]
    except UnicodeDecodeError:
        return None
    s = head + 1 + (raw[head:head + 2] == b"\r\n")
    if head == _PAD or head - _PAD > limit or len(set(names)) != len(names) or s >= end:
        return None
    a = np.frombuffer(raw, np.uint8)
    cuts, rows = [s], 0
    while cuts[-1] < end:
        cuts.append(_block_end(raw, cuts[-1], end, cr))
        rows += np.count_nonzero(_line_ends(a, *cuts[-2:], cr))
    ncol = len(names)
    out = np.empty((ncol, rows))
    tables = _tables()
    r = 0
    for s, t in zip(cuts, cuts[1:]):
        at = _line_ends(a, s, t, cr)
        at |= a[s:t] == 44  # a field ends at a comma or a line end
        ends = np.flatnonzero(at)
        ends += s
        n = ends.size
        line = a[ends] != 44
        if n % ncol or np.count_nonzero(line) * ncol != n or not line[ncol - 1::ncol].all():
            return None
        starts = np.empty_like(ends)
        starts[0] = s
        starts[1:] = ends[:-1] + 1
        stops = ends - ((a[ends] == 10) & (a[ends - 1] == 13)) if cr else ends
        width = stops - starts
        if width.min() == 0 or width.max() > limit:
            return None
        del at, line, width
        vals = _parse_fields(raw, a, starts, stops, tables)
        if vals is None:
            return None
        out[:, r:r + n // ncol] = vals.reshape(-1, ncol).T
        r += n // ncol
    return dict(zip(names, out))


def _block_end(raw, s: int, end: int, cr: bool) -> int:
    """The end of the block of whole lines from s: about ``_BLOCK`` bytes, or
    the first line if it is longer, never splitting a CRLF."""
    lo, t = s, s + _BLOCK
    while t < end:
        cut = max(raw.rfind(b"\n", lo, t), raw.rfind(b"\r", lo, t - 1) if cr else -1)
        if cut >= 0:
            return cut + 1
        lo, t = t - 1, t + _BLOCK
    return end


def _line_ends(a, s: int, t: int, cr: bool) -> np.ndarray:
    """Where lines end in ``a[s:t]``, as for ``csv``: at an LF, and at a CR
    unless an LF follows."""
    at = a[s:t] == 10
    if cr:
        at |= (a[s:t] == 13) & (a[s + 1:t + 1] != 10)
    return at


def _parse_fields(raw, a, starts, stops, tables) -> np.ndarray | None:
    """The values of the fields ``raw[starts[i]:stops[i]]``, bit for bit
    those of ``float()`` (see ``load_matrix``); None if ``float`` refuses one
    or reads it as non-finite.

    ``a`` is ``raw`` as bytes, every field ends at least ``_PAD`` bytes into
    ``raw``, and ``tables`` are ``_tables()``.
    """
    m, q, neg, ok = _decimals(raw, a, starts, stops, tables)
    val, done = _convert(m, q, neg, ok, tables)
    rest = np.flatnonzero(~done)
    for i, lo, hi in zip(rest.tolist(), starts[rest].tolist(), stops[rest].tolist()):
        try:
            v = float(raw[lo:hi].decode().strip())
        except ValueError:  # UnicodeDecodeError is one
            return None
        if not math.isfinite(v):
            return None
        val[i] = v
    return val


def _decimals(raw, a, starts, stops, tables) -> tuple[np.ndarray, ...]:
    """Each field's mantissa m, decimal exponent q and sign, and whether it
    is in ``load_matrix``'s grammar with m < 10**19 (where it is not, m and
    q mean nothing)."""
    tail, last, upto, frac, bit = tables[:5]
    n = starts.size
    size = stops - starts
    longest = int(size.max())
    # each field in a window of the fewest words that holds every one in the
    # block, its last byte in the last column; columns count as in 24 bytes
    words = min(3, (longest + 7) // 8)
    nb = 8 * words
    tail, upto, tail8 = tail[:, 3 - words:], upto[:, 3 - words:], tail[:9, 2].copy()
    win = np.ndarray((len(raw) - nb + 1,), f"V{nb}", raw, strides=(1,))  # from every offset
    xv = win[stops - nb]
    x = xv.view(np.uint64).reshape(n, words)
    ends = stops  # where each mantissa ends: at its e, else at its field's end
    # an exponent is an e and at most 7 bytes after it, all in the last word;
    # a zero byte of t is an e or E, found first where any byte is zero
    t = (x[:, -1] | 0x2020202020202020) ^ 0x6565656565656565
    e = np.flatnonzero((t - 0x0101010101010101) & ~t & 0x8080808080808080)
    if e.size:
        t = ~(((t[e] & 0x7F7F7F7F7F7F7F7F) + 0x7F7F7F7F7F7F7F7F) | t[e])
        t &= 0x8080808080808080 & tail8[np.minimum(size[e], 8)]
        e, t = e[t != 0], t[t != 0]
    if e.size:
        # column c of the last e in its field's last word, and its exponent
        c = (t.astype(np.float64).view(np.int64) >> 55) - 128
        ends = stops.copy()
        ends[e] -= 8 - c
        sign = a[ends[e] + 1]
        digits = 7 - c - ((sign == 43) | (sign == 45))
        keep = tail8[np.maximum(digits, 0)]
        w = (x[e, -1] & keep) | (_ZEROS & ~keep)
        exp_ok = (digits >= 1) & (((w & 0xF0F0F0F0F0F0F0F0)
                                   | (((w + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4))
                                  == 0x3333333333333333)
        w = _eight(w - _ZEROS).view(np.int64)
        exp = np.where(sign == 45, -w, w)
        xv[e] = win[ends[e] - nb]
        size = ends - starts
    # the mantissa, its last byte in the last column: after an optional "-"
    # its non-digits are at most one point, at column p
    neg = a[starts] == 45
    kd = (np.minimum(size, 24) if longest > 24 else size) - neg
    d = x.view(np.uint8)
    d -= 48
    point = (_bits(d > 9) << 8 * (3 - words)) & last[kd]
    p = np.maximum((point.astype(np.float64).view(np.int64) >> 52) - 1023, -1)
    digits = kd - (point != 0)
    ok = (point == bit[p]) & (digits >= 1) & ((p < 0) | (a[ends - 24 + p] == 46))
    if longest > 24:
        ok &= size <= 24
    del size, ends, t, kd, point  # spent: the (n, words) arrays below set the block's peak
    # digit values: those before the point move one column right, over it,
    # and all but the last ``digits`` columns are cleared
    moved = x << 8
    mask = x >> 56
    moved.ravel()[1:] |= mask.ravel()[:-1]
    moved ^= x
    moved &= upto.take(p, axis=0, out=mask)
    x ^= moved
    x &= tail.take(digits, axis=0, out=mask)
    del moved, mask
    g = _eight(x)
    m = g[:, -1].copy()
    if words > 1:
        m += g[:, -2] * 10**8
    if words > 2:
        ok &= g[:, 0] < 1000  # m < 10**19 < 2**64
        m += g[:, 0] * 10**16
    q = -frac[p]
    if e.size:
        q[e] += exp
        ok[e] &= exp_ok
    return m, q, neg, ok


def _convert(m, q, neg, ok, tables) -> tuple[np.ndarray, np.ndarray]:
    """The values ``(-1)**neg * m * 10**q`` where ``ok``, and whether each
    is decided: correctly rounded (see ``load_matrix``)."""
    p10, p10l = tables[5:]
    # Clinger's fast path: exact operands, one rounding; the sign rides on the power
    qa = np.abs(q)
    done = ok & (m <= 2**53) & (qa <= 22)
    scale = p10[np.minimum(qa, 22) + 23 * neg]
    val = m.astype(np.float64)
    up = np.flatnonzero(q > 0)
    high = val[up] * scale[up]
    val /= scale
    val[up] = high
    wide = np.flatnonzero(ok > done) if _WIDE else np.empty(0, np.intp)
    wide = wide[qa[wide] <= 27]
    if wide.size:
        mw = m[wide].astype(np.longdouble)
        scale = p10l[qa[wide] + 28 * neg[wide]]
        r = np.where(q[wide] < 0, mw / scale, mw * scale)
        val[wide] = r
        done[wide] = (r.view(np.uint64)[::2] & 0x7FF) != 0x400  # not on a double midpoint
    return val, done
