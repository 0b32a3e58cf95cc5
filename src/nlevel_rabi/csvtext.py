"""CSV text of float64 tables: ``"%.17g" % x`` for every cell, byte for byte, in numpy.

A nonzero |x| in [1e-200, 1e200] has the decimal exponent E = floor(log10 |x|) and the
17 digits of D = round(|x| 10^(16 - E)).  |x| 10^(16 - E) is formed as a double-double:
Dekker's exact product of |x| and the correctly rounded 10^k, plus |x| times the rounded
rest of 10^k, within 1e-14 of the true value.  So D is proved unless the fraction is
within 1e-9 of one half (every exact tie is, and about one other cell in 5e8).  Such
cells, non-finite values and |x| outside that range (subnormals among them) take
Python's "%.17g" instead; zero, -0.0 and signs stay in the kernel.

A cell's text is laid out in a slot of _SLOT bytes::

    0 "-"   1-5 "0.000"   6 d0   7 "."   8-39 d1 "." d2 "." ... d16 "."
    40-44 "e+123"   45 "," or "\\n"   46-47 unused

digit j at 6 + 2j, a point after it at 7 + 2j.  A keep mask zeroes the bytes that are
not the cell's text: it keeps the digits up to the last nonzero one or the end of the
integer part, the point after the integer part if a digit follows, "0." and the zeros
before the digits for E = -1 ... -4, "e" and the exponent outside -4 <= E <= 16, "0"
alone for zero, and the sign where x has one.  Deleting the NUL bytes leaves the text.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a float64 into two 26-bit halves
_E_MIN, _E_MAX = -210, 210  # decimal exponents the tables hold
_SLOT = 48
_ZERO = _E_MAX - _E_MIN + 1  # the template of zero, after the one of each exponent
_NEVER = 127  # keep rank of a byte never kept; a byte of rank r is kept when r <= m
# a block's temporaries take about 512 bytes a cell; a block holds the rows that fit 2^20
_BLOCK_BYTES, _CELL_BYTES = 2 ** 20, 512


def lines(table):
    """Yield the CSV rows of the 2-D float64 ``table``, a block of rows at a time.

    Each row is ``",".join("%.17g" % v for v in row) + "\\n"``, byte for byte.
    """
    rows = max(1, _BLOCK_BYTES // (_CELL_BYTES * table.shape[1]))
    for start in range(0, len(table), rows):
        block = table[start : start + rows]
        x = block.ravel()
        out, slow = slots(x)
        out[block.shape[1] - 1 :: block.shape[1], 45] = ord("\n")
        for i in np.flatnonzero(slow):
            text = ("%.17g" % x[i]).encode()
            out[i, :45] = 0
            out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        yield out.tobytes().translate(None, b"\0").decode("ascii")


def slots(x):
    """(out, slow) for the 1-D float64 array ``x``.

    Row i of the (len(x), _SLOT) uint8 ``out`` holds the "%.17g" text of x[i] and a ",",
    among NUL bytes, except where ``slow`` marks a cell whose rounding the kernel cannot
    prove.
    """
    tables = _tables()
    quad, last, templates, kind, keep = tables[4:]
    a = np.abs(x)
    fast = (a >= 1e-200) & (a <= 1e200)  # False for NaN
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e, tables)
    # log10 may miss E by one next to a power of ten
    off = (d < 10 ** 16).astype(np.int64) - (d >= 10 ** 17)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] -= off[redo]
        d[redo], frac[redo] = _scaled(a[redo], e[redo], tables)
    d += frac > 0.5
    carry = d == 10 ** 17  # 99999999999999999.5 and up round to 1e17: one more digit
    d[carry] = 10 ** 16
    e += carry
    slow = ~(fast | zero) | (abs(frac - 0.5) < 1e-9) | (d < 10 ** 16) | (d >= 10 ** 17)
    t = np.where(zero, _ZERO, e - _E_MIN)
    # d0, then the four groups of four digits, from the halves of D, which floats hold exactly
    top = d // 10 ** 8
    halves = np.array([top, d - top * 10 ** 8], dtype=float)
    lead = np.floor(halves[0] / 1e8)
    halves[0] -= lead * 1e8
    upper = np.floor(halves / 1e4)
    groups = np.empty((4, len(x)), dtype=np.intp)
    groups[::2] = upper
    groups[1::2] = halves - upper * 1e4
    out = templates.take(t, axis=0)
    out[:, 6] = lead + ord("0")
    out.view(np.uint64)[:, 1:5] = quad.take(groups).T
    last_nonzero = last.take(groups + np.array([[0], [10000], [20000], [30000]])).max(axis=0)
    mask = keep.take(kind.take(t) * 17 + last_nonzero, axis=0)
    mask[:, 0] = np.signbit(x)
    out *= mask
    return out, slow


def _scaled(a, e, tables):
    """(floor, fraction) of a 10^(16 - e), from a double-double product."""
    hi, lo, hi_top, hi_low = (t.take(e - _E_MIN) for t in tables[:4])
    split = _SPLIT * a
    top = split - (split - a)
    low = a - top
    p = a * hi
    tail = ((top * hi_top - p) + top * hi_low + low * hi_top) + low * hi_low + a * lo
    whole = np.floor(p)
    rest = (p - whole) + tail
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


@functools.cache
def _tables():
    """The kernel's tables, built on the first CSV write.

    (hi, lo, hi's split halves) of 10^(16 - E) for E in [_E_MIN, _E_MAX]; the 10,000
    four-digit groups as "d.d.d.d." uint64 words; for group j = 0 ... 3 (digits 4j + 1 to
    4j + 4 of the 17), the index of each value's last nonzero digit, 0 for 0000, at
    j 10^4 + value; each exponent's (and zero's) slot template and keep class; and the
    keep masks, one row per keep class and last nonzero digit.
    """
    hi, lo = [], []
    for k in range(16 - _E_MIN, 16 - _E_MAX - 1, -1):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            q = 10 ** -k
            hi.append(1 / q)  # int division rounds correctly, and so does the rest's
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi, lo = np.array(hi), np.array(lo)
    split = _SPLIT * hi
    hi_top = split - (split - hi)
    # the four-digit tables from the two-digit ones, in uint8 and int8: no large temporaries
    pairs = np.frombuffer("".join(f"{a}.{b}." for a in range(10) for b in range(10)).encode(),
                          dtype=np.uint8).reshape(100, 4)
    quad = np.empty((100, 100, 8), dtype=np.uint8)
    quad[:, :, :4] = pairs[:, None]
    quad[:, :, 4:] = pairs
    last2 = np.array([2 if v % 10 else int(v > 0) for v in range(100)], dtype=np.int8)
    last = np.where(last2 > 0, last2 + 2, last2[:, None]).ravel()
    last = np.where(last > 0, last + np.array([[0], [4], [8], [12]], dtype=np.int8), 0)
    # keep classes: E = -4 ... 16 written out, a two-digit exponent, a three-digit
    # exponent, zero
    e = np.arange(_E_MIN, _E_MAX + 1)
    kind = np.full(_ZERO + 1, 23)
    kind[:_ZERO] = np.where((-4 <= e) & (e <= 16), e + 4, np.where(abs(e) < 100, 21, 22))
    templates = np.zeros((_ZERO + 1, _SLOT), dtype=np.uint8)
    templates[:, :8] = np.frombuffer(b"-0.0000.", dtype=np.uint8)
    templates[:_ZERO, 40:45] = np.frombuffer(
        "".join(f"e{x:+03d}".ljust(5) for x in e).encode(), dtype=np.uint8).reshape(-1, 5)
    templates[:, 45] = ord(",")
    # rank[kind, column]; the digits through the integer part's last, floor, are kept
    rank = np.full((24, _SLOT), _NEVER, dtype=np.int8)
    floor = np.zeros(24, dtype=np.int8)
    for k in range(23):
        rank[k, 6:40:2] = np.arange(17)  # digit j is kept when j <= m
        point = k - 4 if k <= 20 else 0  # the last digit of the integer part
        if point >= 0:
            floor[k] = point
            rank[k, 7 + 2 * point] = point + 1  # kept when a digit follows it
        else:
            rank[k, 1 : 2 - point] = -1  # "0." and the zeros before the digits
        if k > 20:
            rank[k, 40 : 44 + (k == 22)] = -1
    rank[23, 1] = -1
    rank[:, 45] = -1
    m = np.maximum(np.arange(17), floor[:, None])
    keep = rank[:, None, :] <= m[:, :, None]
    return (hi, lo, hi_top, hi - hi_top, quad.view(np.uint64).ravel(), last.ravel(),
            templates, kind, keep.reshape(-1, _SLOT))
