"""Text of float64 arrays in numpy, byte for byte: ``"%.17g" % x`` for CSV, ``repr(x)`` for JSON.

JSON's layout is ``json.dumps``'s own text; the kernel writes only the cells of its arrays.

A nonzero |x| in [1e-200, 1e200] has the decimal exponent E = floor(log10 |x|), and
V = |x| 10^(16 - E) = w + frac is formed as a double-double: Dekker's exact product of
|x| and the correctly rounded 10^k, plus |x| times the rounded rest of 10^k, within 1e-14
of the true value.  Both spellings write the digits of a 17-digit integer D:

- "%.17g" takes D = round(V).  It is proved unless frac is within 1e-9 of one half (every
  exact tie is, and about one other cell in 5e8).
- repr takes the shortest digits that read back as x (Steele & White; Adams's Ryu): the
  integer with the most trailing zeros among those within half the gap to the next float,
  h = spacing(|x|) 10^(16 - E) / 2, of V, and nearest V among those (below an exact power
  of two the gap is half as wide).  The range is 1.1 to 22.2 wide, so it holds at most one
  multiple of 100: b - b % 100, where b is the top of the range, if that lies in it; else
  the nearest multiple of 10 in it, if there is one; else round(V), which always lies in
  it.  It is proved unless a boundary of the range, or a midpoint between two candidates,
  lies within 1e-9 of them (as for every float from 2^52 to 1e17, whose range ends on
  whole numbers).

Unproved cells, non-finite values and |x| outside that range (subnormals among them) take
Python's own text; zero, -0.0 and signs stay in the kernel.

A cell's text is laid out in a slot of _SLOT bytes::

    0 "-"   1-5 "0.000"   6 d0   7 "."   8-39 d1 "." d2 "." ... d16 "."
    40-44 "e+123"   45 "," or "\\n"   46-47 unused

digit j at 6 + 2j, a point after it at 7 + 2j.  A keep mask zeroes the bytes that are
not the cell's text: it keeps the digits up to the last nonzero one or the end of the
integer part, the point after the integer part if a digit follows, "0." and the zeros
before the digits for E = -1 ... -4, "e" and the exponent outside -4 <= E <= 16, "0"
alone for zero, and the sign where x has one.  repr's masks differ in three places: the
exponent is written from E = 16 on, a whole number keeps its point and one zero after
it ("100.0"), and zero is "0.0".  Deleting the NUL bytes leaves the text.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a float64 into two 26-bit halves
_E_MIN, _E_MAX = -210, 210  # decimal exponents the tables hold
_SLOT = 48
_ZERO = _E_MAX - _E_MIN + 1  # the template of zero, after the one of each exponent
_NEVER = 127  # keep rank of a byte never kept; a byte of rank r is kept when r <= m
# a block's temporaries take about 512 bytes a cell; a block holds the cells that fit 2^20
_BLOCK_BYTES, _CELL_BYTES = 2 ** 20, 512
_END = "\x01"  # the separator after an array's last cell, and _brackets's cells; in no cell's text


def lines(table):
    """Yield the CSV rows of the 2-D float64 ``table``, a block of rows at a time.

    Each row is ``",".join("%.17g" % v for v in row) + "\\n"``, byte for byte.
    """
    rows = max(1, _BLOCK_BYTES // (_CELL_BYTES * table.shape[1]))
    for start in range(0, len(table), rows):
        block = table[start : start + rows]
        out, _ = slots(block.ravel())
        out[block.shape[1] - 1 :: block.shape[1], 45] = ord("\n")
        yield out.tobytes().translate(None, b"\0").decode("ascii")


def dump_json(doc, fh):
    """Write ``json.dumps(doc, indent=2)`` to the text stream ``fh``, byte for byte.

    Float64 ndarrays in ``doc`` are written as their nested lists, each cell in repr's
    spelling (``NaN`` and ``Infinity`` where not finite).  ``json.dumps`` writes the layout,
    each array with cells a hole in it: a marker string, salted until no string of ``doc``
    spells it.  The kernel writes only the cells, of all arrays together, a block at a time,
    each followed by its separator: a row of a small table, picked by how many array axes
    the cell closes.  After an array's last cell it is _END, where the text up to the next
    array's first cell is written.
    """
    def hole(value):
        if isinstance(value, np.ndarray) and value.dtype == float:
            if value.ndim and value.size:
                arrays.append(value)
                return marker
            return value.tolist()
        return json.JSONEncoder().default(value)  # json's own TypeError

    for salt in itertools.count():
        marker, arrays = f"\x01{salt}", []
        # texts[j] comes before array j and texts[-1] after the last
        texts = json.dumps(doc, indent=2, default=hole).split(json.dumps(marker))
        if len(texts) == len(arrays) + 1:
            break
    # every array's cells in one stream, and the table row of the text after each cell
    cells, ids, rows = [np.empty(0)], [np.empty(0, dtype=np.intp)], []
    for j, array in enumerate(arrays):
        line = texts[j].rpartition("\n")[2]  # its hole's line, indented two spaces a level
        opening, seps, closing = _brackets((len(line) - len(line.lstrip(" "))) // 2, array.ndim)
        texts[j] += opening
        texts[j + 1] = closing + texts[j + 1]
        closes = np.full(array.size, len(rows), dtype=np.intp)
        for n in itertools.accumulate(array.shape[:0:-1], operator.mul):
            closes[n - 1 :: n] += 1
        closes[-1] += 1  # the last cell closes every axis: _END
        cells.append(array.reshape(-1))
        ids.append(closes)
        rows += seps
    cells, ids = np.concatenate(cells), np.concatenate(ids)
    width = max(map(len, rows), default=0)
    table = np.frombuffer(b"".join(row.ljust(width, b"\0") for row in rows),
                          dtype=np.uint8).reshape(len(rows), width)
    block = _BLOCK_BYTES // (_CELL_BYTES + width)
    after = iter(texts[1:])
    fh.write(texts[0])
    for lo in range(0, len(cells), block):
        out, _ = slots(cells[lo : lo + block], shortest=True)
        text = np.concatenate((out[:, :45], table.take(ids[lo : lo + block], axis=0)), axis=1)
        head, *parts = text.tobytes().translate(None, b"\0").decode("ascii").split(_END)
        fh.write(head)
        for part in parts:
            fh.write(next(after))
            fh.write(part)


@functools.cache
def _brackets(depth, k):
    """(opening, separators, closing) of a k-axis array on a line of indent level ``depth``.

    They are cut from the JSON text of a 2 x ... x 2 list of _END, whose cell 2^c - 1 is
    followed by separator c, the text after a cell that closes c axes; the last cell,
    which closes all k, by _END.
    """
    cube = functools.reduce(lambda inner, _: [inner, inner], range(k), _END)
    text = json.dumps(cube, indent=2).replace("\n", "\n" + "  " * depth)
    opening, *seps, closing = text.split(json.dumps(_END))
    return opening, [seps[2 ** c - 1].encode() for c in range(k)] + [_END.encode()], closing


def slots(x, shortest=False):
    """(out, slow) for the 1-D float64 array ``x``.

    Row i of the (len(x), _SLOT) uint8 ``out`` holds the "%.17g" text of x[i], or its
    repr if ``shortest``, and a ",", among NUL bytes.  ``slow`` marks the cells whose
    digits the kernel cannot prove; their text is Python's.
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
    if shortest:
        d, near = _shortest(a, e, d, frac, tables[0])
    else:
        d += frac > 0.5
        near = abs(frac - 0.5) < 1e-9
    carry = d == 10 ** 17  # 99999999999999999.5 and up round to 1e17: one more digit
    d[carry] = 10 ** 16
    e += carry
    slow = ~(fast | zero) | near | (d < 10 ** 16) | (d >= 10 ** 17)
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
    mask = keep.take(kind[int(shortest)].take(t) * 17 + last_nonzero, axis=0)
    mask[:, 0] = np.signbit(x)
    out *= mask
    spell = json.dumps if shortest else "%.17g".__mod__
    for i in np.flatnonzero(slow):
        text = spell(x[i]).encode()
        out[i, :45] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
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


def _shortest(a, e, w, frac, hi):
    """(D, near): repr's digits of V = a 10^(16 - e) = w + frac as a 17-digit integer with
    trailing zeros, and the cells within 1e-9 of one of its decisions."""
    half = np.spacing(a) * hi.take(e - _E_MIN) * 0.5
    low = np.where(a.view(np.int64) << 12 == 0, 0.5 * half, half)  # half below a power of two
    top = frac + half  # the range is [V - low, V + half] = w + [frac - low, top]
    b = w + np.floor(top).astype(np.int64)
    hundred = b - b % 100
    above_low = (hundred - w) - (frac - low)  # hundred is in range when this is positive
    unit = w % 10
    r = unit + frac  # V's distance above the multiple of 10 below it
    down, up = r < low, 10 - r < half  # the multiples of 10 below and above V in range
    d = np.where(above_low > 0, hundred, np.where(
        down | up, w - unit + 10 * (up & (~down | (r > 5))), w + (frac > 0.5)))
    # the top's floor, the range's ends, and the ties between multiples of 10 (when both are
    # in range) and of 1
    edges = np.array([top - np.round(top), above_low, r - low, 10 - r - half,
                      np.where(low > 5, r - 5, 1.0), frac - 0.5])
    return d, abs(edges).min(axis=0) < 1e-9


@functools.cache
def _tables():
    """The kernel's tables, built on the first write.

    (hi, lo, hi's split halves) of 10^(16 - E) for E in [_E_MIN, _E_MAX]; the 10,000
    four-digit groups as "d.d.d.d." uint64 words; for group j = 0 ... 3 (digits 4j + 1 to
    4j + 4 of the 17), the index of each value's last nonzero digit, 0 for 0000, at
    j 10^4 + value; each exponent's (and zero's) slot template, and its keep class for
    "%.17g" (row 0) and repr (row 1); and the keep masks, one row per keep class and last
    nonzero digit.
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
    # exponent, zero; for repr also E = 0 ... 15 written out with at least one decimal,
    # and zero as "0.0"
    e = np.arange(_E_MIN, _E_MAX + 1)
    exponent = np.where(abs(e) < 100, 21, 22)
    kind = np.array([[23], [40]]).repeat(_ZERO + 1, axis=1)
    kind[0, :_ZERO] = np.where((-4 <= e) & (e <= 16), e + 4, exponent)
    kind[1, :_ZERO] = np.where((-4 <= e) & (e <= 15), np.where(e < 0, e + 4, e + 24), exponent)
    templates = np.zeros((_ZERO + 1, _SLOT), dtype=np.uint8)
    templates[:, :8] = np.frombuffer(b"-0.0000.", dtype=np.uint8)
    templates[:_ZERO, 40:45] = np.frombuffer(
        "".join(f"e{x:+03d}".ljust(5) for x in e).encode(), dtype=np.uint8).reshape(-1, 5)
    templates[:, 45] = ord(",")
    # rank[kind, column]; the digits through floor[kind] are kept
    rank = np.full((41, _SLOT), _NEVER, dtype=np.int8)
    floor = np.zeros(41, dtype=np.int8)
    for k in (*range(23), *range(24, 40)):
        rank[k, 6:40:2] = np.arange(17)  # digit j is kept when j <= m
        point = k - 4 if k <= 20 else k - 24 if k >= 24 else 0  # the integer part's last digit
        if k >= 24:  # repr's: the point and the digit after it, "0" for a whole number
            floor[k] = point + 1
            rank[k, 7 + 2 * point] = -1
        elif point >= 0:
            floor[k] = point
            rank[k, 7 + 2 * point] = point + 1  # kept when a digit follows it
        else:
            rank[k, 1 : 2 - point] = -1  # "0." and the zeros before the digits
        if k in (21, 22):
            rank[k, 40 : 44 + (k == 22)] = -1
    rank[23, 1] = -1
    rank[40, 1:4] = -1
    rank[:, 45] = -1
    m = np.maximum(np.arange(17), floor[:, None])
    keep = rank[:, None, :] <= m[:, :, None]
    return (hi, lo, hi_top, hi - hi_top, quad.view(np.uint64).ravel(), last.ravel(),
            templates, kind, keep.reshape(-1, _SLOT))
