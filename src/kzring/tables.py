"""Column tables and the CSV format they are written in.

A DataTable holds named columns, each a float array or a tuple of strings,
and string metadata.  emit_csv writes it as `# key = value` metadata lines,
a header row, then one line per row, UTF-8 with LF endings; each numeric
cell is exactly the text of `'%.12g' % v`.

A table of float columns is formatted a block of rows at a time with numpy:
each cell is laid into a fixed slot of bytes together with a mask of the
bytes it keeps, and the kept bytes of a block, in order, are its CSV lines.
The rows are cut into blocks by kzring._workers, a cell weighing
CELL_POINTS points, and the blocks are formatted on the calling thread and
the worker thread and written in order; a block's bytes do not depend on the
thread that formats it or on where the blocks are cut.  A block keeps its
bytes SLICE_CELLS cells at a time, so the int64 index np.compress builds
spans one slice's kept bytes, not the block's.  A table with a string
column is written row by row.

Vector path, for ±0 and every normal double with |v| < 1e10: with
X = floor(log10|v|) and k = 11 − X (1 <= k <= 319), Y = |v|·10^k lies in
[1e11, 1e12) and its nearest integer N carries the 12 significant digits.
It takes y = (|v|·2^64)·q[k] with q[k] = fl(10^k·2^-64), once more with
X ± 1 where log10 misjudged X and y falls outside [1e11, 1e12).

- Bound: q[k] is off by at most u = 2^-53 relative and the product rounds once
  more, so |y − Y| < 2u·Y < 2u·1e12 ≈ 2.22e-4.
- Rule: N = rint(y), except that exact ties and every y within
  _NEAR_TIE = 2.5e-4 of a tie m + 1/2 go per-cell.

The other cells go through Python's own per-cell formatting (`_per_cell`):
subnormals, inf, nan, |v| >= 1e10 and the cells in the tie band, about
2·_NEAR_TIE = 5e-4 of cells with random digits.
The closed forms write a concurrence below the smallest normal double as 0,
so no kzring table of float columns holds any of them, unless a mean or a
difference of concurrences near that bound falls below it.  The numbers of
a table with a string column all go through `_per_cell`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _workers

__all__ = ["CELL_POINTS", "DataTable", "csv_lines", "emit_csv"]

# Points of the worker cut that one cell weighs.  Formatting takes about
# 220 bytes a cell and the dia kernel about 75 a point, so a CSV block takes
# about 1.5 times a kernel block's memory.
CELL_POINTS = 2

# Cells of a block compacted at a time: np.compress's int64 index then spans
# the kept bytes of 4,096 slots (160 KiB of them), not of the whole block.
SLICE_CELLS = 4096

# Slot of one numeric cell, 5 words of 8 bytes:
#   0-7    "\0\0-0.000": sign, then "0." and zeros for -4 <= X < 0
#   8-31   the 12 digits of N, each followed by a slot for the point
#   32-39  "e-XX" or "e-XXX", pad bytes, then the separator
SLOT = 40
_HEAD = np.frombuffer(b"\0\0-0.000", dtype=np.uint64)[0]
_X_MIN = -308  # exponent of the smallest normal double
# Largest k, for the smallest normal double; 10^k overflows from k = 309 on,
# 10^k·2^-64 stays finite.
_K_MAX = 11 - _X_MIN
# Half-width of the band around a tie that goes per-cell: above the
# error bound 2u·1e12 ≈ 2.22e-4 of y.
_NEAR_TIE = 2.5e-4
# Kinds of layout in the keep table: scientific notation with a 2- or
# 3-digit exponent, then fixed notation for each X in [-4, 10].
_KINDS = 2 + 15


def _words(byte_rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64)


@functools.cache
def _lookup_tables():
    """Lookup tables, built on first use so that importing stays free.

    quad[g]: the 4 digits of g < 10^4, each followed by '.' (one word).
    zeros[g]: trailing zeros of g, 4 for g == 0.
    exponent[X + 308]: the word "e-XX" or "e-XXX" + padding + ','.
    kind[X + 308]: the layout kind of a cell with exponent X.
    keep[(neg·17 + kind)·12 + nsig − 1]: the kept bytes of a cell with
    that sign, kind and count of significant digits, as `%g` lays it out:
    fixed notation for -4 <= X < 12, else d.ddde-XX.
    q[k]: 10^k·2^-64 for 0 <= k <= 319, correctly rounded (Python's int
    division is).
    """
    g = np.arange(10000, dtype=np.uint16)
    quad = np.full((g.size, 8), ord("."), dtype=np.uint8)
    for i in range(4):
        quad[:, 2 * i] = ord("0") + g // 10 ** (3 - i) % 10
    zeros = sum((g % 10**k == 0).astype(np.uint8) for k in range(1, 5))

    x = range(_X_MIN, 11)
    exponent = np.frombuffer(
        b"".join((b"e-%02d" % abs(e)).ljust(7, b"\0") + b"," for e in x), dtype=np.uint64
    )
    kind = np.array([e + 6 if e >= -4 else int(e <= -100) for e in x])

    neg, kinds, nsig = np.indices((2, _KINDS, 12)).reshape(3, -1)
    nsig += 1
    fixed = kinds >= 2
    x = kinds - 6
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
    keep[:, 36] = kinds == 1
    keep[:, SLOT - 1] = True

    q = np.array([10**k / 2**64 for k in range(_K_MAX + 1)])
    return _words(quad)[:, 0], zeros, exponent, kind, _words(keep.view(np.uint8)), q


def _per_cell(values: np.ndarray) -> list[bytes]:
    """`'%.12g' % v` of each value, for the cells off the vector path."""
    return [("%.12g" % f).encode() for f in values.tolist()]


def _number_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text and keep mask, both (n, SLOT), of `'%.12g' % v + ','` per value."""
    v = np.asarray(values, dtype=float).reshape(-1)
    a = np.abs(v)
    other = np.flatnonzero(~((a >= np.finfo(float).tiny) & (a < 1e10)))
    a[other] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    a *= 2.0**64
    quad, zeros, exponent, kind, keep_rows, q = _lookup_tables()
    y = a * q[11 - x]
    low = y < 1e11
    high = y >= 1e12
    fix = np.flatnonzero(low | high)
    if fix.size:
        x[fix] += high[fix].astype(np.intp) - low[fix]
        y[fix] = a[fix] * q[11 - x[fix]]
    n = np.rint(y)
    near = np.flatnonzero(np.abs(y - n) > 0.5 - _NEAR_TIE)
    zero = other[v[other] == 0]
    n[zero] = 0
    carry = n == 1e12
    n[carry] = 1e11
    x += carry

    g0 = np.floor(n / 1e8)
    n -= g0 * 1e8
    g1 = np.floor(n / 1e4)
    g2 = (n - g1 * 1e4).astype(np.intp)
    g0, g1 = g0.astype(np.intp), g1.astype(np.intp)
    x -= _X_MIN
    text = np.empty((v.size, SLOT // 8), dtype=np.uint64)
    text[:, 0] = _HEAD
    text[:, 1] = quad[g0]
    text[:, 2] = quad[g1]
    text[:, 3] = quad[g2]
    text[:, 4] = exponent[x]
    tz = zeros[g2]
    z = np.flatnonzero(g2 == 0)
    if z.size:
        # A zero keeps one digit: at most 11 trailing zeros.
        tz[z] = np.minimum(np.where(g1[z] != 0, 4 + zeros[g1[z]], 8 + zeros[g0[z]]), 11)
    key = (np.signbit(v) * _KINDS + kind[x]) * 12 + 11 - tz
    keep = keep_rows.take(key, axis=0).view(bool)
    text = text.view(np.uint8)

    slow = np.concatenate([other[v[other] != 0], near])
    if slow.size:
        cells = _per_cell(v[slow])
        lengths = np.array([len(c) for c in cells])
        width = lengths.max()
        text[slow, :width] = np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        slot = np.arange(SLOT)
        keep[slow] = (slot < lengths[:, None]) | (slot == SLOT - 1)
    return text, keep


def _block(columns: list) -> bytes:
    """The CSV lines of one block of rows."""
    text, keep = _number_slots(np.stack(columns, axis=1))
    # One row of slots per line: its last slot's separator ends the line.
    text.reshape(len(columns[0]), -1)[:, -1] = ord("\n")
    return b"".join(
        np.compress(keep[k : k + SLICE_CELLS].reshape(-1), text[k : k + SLICE_CELLS].reshape(-1))
        .tobytes()
        for k in range(0, len(text), SLICE_CELLS)
    )


def csv_lines(columns: list):
    """Yield the CSV lines of the given float columns, a block of rows at a time.

    Each cell is written as `'%.12g' % v`.  Lines end in LF.  The blocks are
    those of _workers.ordered_map, each cell CELL_POINTS points.
    """
    rows = len(columns[0]) if columns else 0
    yield from _workers.ordered_map(
        lambda block: _block([c[block] for c in columns]), rows, CELL_POINTS * len(columns)
    )


def _column(cells):
    """A float array, or a tuple if the cells hold a string: then all must."""
    if isinstance(cells, np.ndarray) or not any(isinstance(v, str) for v in cells):
        return np.asarray(cells, dtype=float)
    cells = tuple(cells)
    for v in cells:
        if not isinstance(v, str):
            raise ValueError(f"a string column holds the non-string {v!r}")
        if "," in v or "\n" in v:
            raise ValueError("table strings must not contain commas or newlines")
    return cells


class DataTable:
    """Named columns, each a float array or a tuple of strings, with metadata."""

    def __init__(self, columns, data, metadata=None):
        self.columns = tuple(str(c) for c in columns)
        self.data = [_column(c) for c in data]
        if len(self.data) != len(self.columns) or len({len(c) for c in self.data}) > 1:
            raise ValueError("columns must match the names and share one length")
        self.metadata = dict(metadata or {})

    def column(self, name: str):
        """The named column as stored: a float array or a tuple of strings."""
        return self.data[self.columns.index(name)]


def emit_csv(table: DataTable, path: str) -> None:
    """Write metadata (# key = value), a header row, then 12-digit data rows.

    Each numeric cell is exactly the text of `'%.12g' % value`.  Output is
    UTF-8 with LF endings and is byte-deterministic for a given table.
    """
    lines = [f"# {k} = {v}" for k, v in table.metadata.items()]
    lines.append(",".join(table.columns))
    head = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(head)
        if all(isinstance(c, np.ndarray) for c in table.data):
            fh.writelines(csv_lines(table.data))
        else:
            cells = [
                _per_cell(c) if isinstance(c, np.ndarray) else [v.encode("utf-8") for v in c]
                for c in table.data
            ]
            fh.writelines(b",".join(row) + b"\n" for row in zip(*cells))
