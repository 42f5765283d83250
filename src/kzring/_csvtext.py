"""CSV rows whose numeric cells are exactly the text of `'%.12g' % v`.

Numbers are formatted a block of rows at a time with numpy: each cell is
laid into a fixed slot of bytes together with a mask of the bytes it keeps,
and the kept bytes of a block, in order, are its CSV lines.

Exact path, for finite |v| in [1e-10, 1e10): with X = floor(log10|v|),
y = |v|·10^(11−X) lies in [1e11, 1e12) and its nearest integer N carries
the 12 significant digits.  10^k is an exact double for 0 <= k <= 22, so
Dekker's two-product (Numer. Math. 18, 224 (1971)) gives y exactly as
hi + lo; numpy rounds each operation once and fuses none.  The exact y
corrects an X misjudged by log10 and settles round-half-even ties.  Every
other cell (zeros, subnormals, inf, nan, and magnitudes outside the range)
goes through Python's own per-cell formatting.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["BLOCK_ROWS", "csv_lines"]

# Rows formatted per numpy pass: small enough that a block's temporaries
# stay in cache, large enough that the per-pass overhead is amortized.
BLOCK_ROWS = 1024

# Slot of one numeric cell, 5 words of 8 bytes:
#   0-7    "\0\0-0.000": sign, then "0." and zeros for -4 <= X < 0
#   8-31   the 12 digits of N, each followed by a slot for the point
#   32-39  "e-XX", 3 pad bytes, then the separator
SLOT = 40
_HEAD = np.frombuffer(b"\0\0-0.000", dtype=np.uint64)[0]
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1


def _two_product(a, b):
    """hi, lo with hi + lo == a·b exactly (Dekker, without FMA)."""
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _words(byte_rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64)


@functools.cache
def _tables():
    """Lookup tables, built on first use so that importing stays free.

    quad[g]: the 4 digits of g < 10^4, each followed by '.' (one word).
    zeros[g]: trailing zeros of g, 4 for g == 0.
    exponent[X + 10]: the word "e-XX" + padding + ',' for -10 <= X <= 10.
    keep[(neg·21 + X + 10)·12 + nsig − 1]: the kept bytes of a cell with
    that sign, exponent and count of significant digits, as `%g` lays it
    out: fixed notation for -4 <= X < 12, else d.ddde-XX.
    """
    g = np.arange(10000, dtype=np.uint16)
    quad = np.full((g.size, 8), ord("."), dtype=np.uint8)
    for i in range(4):
        quad[:, 2 * i] = ord("0") + g // 10 ** (3 - i) % 10
    zeros = sum((g % 10**k == 0).astype(np.uint8) for k in range(1, 5))

    x = np.arange(-10, 11)
    exponent = np.zeros((x.size, 8), dtype=np.uint8)
    exponent[:, :2] = np.frombuffer(b"e-", dtype=np.uint8)
    exponent[:, 2] = ord("0") + abs(x) // 10
    exponent[:, 3] = ord("0") + abs(x) % 10
    exponent[:, 7] = ord(",")

    neg, x, nsig = np.indices((2, 21, 12)).reshape(3, -1)
    x, nsig = x - 10, nsig + 1
    fixed = x >= -4
    lead = np.where(fixed, np.maximum(-x, 0), 0)  # zeros ahead of the digits
    ndig = np.where(fixed, np.maximum(nsig, x + 1), nsig)  # digits written
    point = np.where(fixed, x, 0)  # the digit the point follows, if lead == 0
    j = np.arange(12)
    keep = np.zeros((neg.size, SLOT), dtype=bool)
    keep[:, 2] = neg
    keep[:, 3:5] = (lead > 0)[:, None]
    keep[:, 5:8] = np.arange(3) >= 4 - lead[:, None]
    keep[:, 8:32:2] = j < ndig[:, None]
    keep[:, 9:32:2] = (j == point[:, None]) & ((lead == 0) & (ndig > point + 1))[:, None]
    keep[:, 32:36] = ~fixed[:, None]
    keep[:, SLOT - 1] = True
    return _words(quad)[:, 0], zeros, _words(exponent)[:, 0], _words(keep.view(np.uint8))


def _number_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text and keep mask, both (n, SLOT), of `'%.12g' % v + ','` per value."""
    v = np.asarray(values, dtype=float).reshape(-1)
    a = np.abs(v)
    exact = (a >= 1e-10) & (a < 1e10)
    a = np.where(exact, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, _POW10[11 - x])
    low = (hi < 1e11) | ((hi == 1e11) & (lo < 0))
    high = (hi > 1e12) | ((hi == 1e12) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        x[fix] += high[fix].astype(np.intp) - low[fix]
        hi[fix], lo[fix] = _two_product(a[fix], _POW10[11 - x[fix]])
    # hi has an exact fraction and |lo| < ulp(hi)/2, so lo matters only
    # when hi sits exactly halfway; otherwise round half to even on hi.
    floor = np.floor(hi)
    n = np.where((hi - floor == 0.5) & (lo != 0), floor + (lo > 0), np.rint(hi))
    carry = n == 1e12
    n[carry] = 1e11
    x += carry

    quad, zeros, exponent, keep_rows = _tables()
    g0 = np.floor(n / 1e8)
    n -= g0 * 1e8
    g1 = np.floor(n / 1e4)
    g2 = (n - g1 * 1e4).astype(np.intp)
    g0, g1 = g0.astype(np.intp), g1.astype(np.intp)
    text = np.empty((v.size, SLOT // 8), dtype=np.uint64)
    text[:, 0] = _HEAD
    text[:, 1] = quad[g0]
    text[:, 2] = quad[g1]
    text[:, 3] = quad[g2]
    text[:, 4] = exponent[x + 10]
    tz = zeros[g2]
    z = np.flatnonzero(g2 == 0)
    if z.size:
        tz[z] = np.where(g1[z] != 0, 4 + zeros[g1[z]], 8 + zeros[g0[z]])
    key = (np.signbit(v) * 21 + x + 10) * 12 + 11 - tz
    keep = keep_rows.take(key, axis=0).view(bool)
    text = text.view(np.uint8)

    other = np.flatnonzero(~exact)
    if other.size:
        cells = [("%.12g" % f).encode() for f in v[other].tolist()]
        lengths = np.array([len(c) for c in cells])
        width = lengths.max()
        text[other, :width] = np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        slot = np.arange(SLOT)
        keep[other] = (slot < lengths[:, None]) | (slot == SLOT - 1)
    return text, keep


def _string_slots(cells: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Text and keep mask, both (n, width), of each cell's UTF-8 bytes + ','."""
    encoded = [c.encode("utf-8") for c in cells]
    joined = b"".join(b.ljust(width - 1, b"\0") + b"," for b in encoded)
    lengths = np.array([len(b) for b in encoded])
    slot = np.arange(width)
    keep = (slot < lengths[:, None]) | (slot == width - 1)
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, width), keep


def _block(columns: list) -> bytes:
    """The CSV lines of one block of rows."""
    rows, ncols = len(columns[0]), len(columns)
    numeric = [i for i, c in enumerate(columns) if isinstance(c, np.ndarray)]
    strings = [i for i, c in enumerate(columns) if not isinstance(c, np.ndarray)]
    if numeric:
        num_text, num_keep = _number_slots(np.stack([columns[i] for i in numeric], axis=1))
    if not strings:
        text = num_text.reshape(rows, ncols, SLOT)
        keep = num_keep.reshape(rows, ncols, SLOT)
    else:
        longest = max(len(s.encode("utf-8")) for i in strings for s in columns[i])
        width = max(SLOT, longest + 1)
        text = np.zeros((rows, ncols, width), dtype=np.uint8)
        keep = np.zeros((rows, ncols, width), dtype=bool)
        if numeric:
            # Every slot ends in its separator, so a number's moves to the
            # end of the wider slot.
            text[:, numeric, : SLOT - 1] = num_text.reshape(rows, -1, SLOT)[:, :, :-1]
            keep[:, numeric, : SLOT - 1] = num_keep.reshape(rows, -1, SLOT)[:, :, :-1]
            text[:, numeric, -1] = ord(",")
            keep[:, numeric, -1] = True
        for i in strings:
            text[:, i], keep[:, i] = _string_slots(columns[i], width)
    text[:, -1, -1] = ord("\n")
    return np.compress(keep.reshape(-1), text.reshape(-1)).tobytes()


def csv_lines(columns: list):
    """Yield the CSV lines of the given columns, one block of rows at a time.

    A column is either a float array, written as `'%.12g' % v` per cell,
    or a list of strings, written as their UTF-8 bytes.  The caller checks
    that no string holds a comma or a newline.  Lines end in LF.
    """
    if not columns:
        return
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        yield _block([c[start : start + BLOCK_ROWS] for c in columns])
