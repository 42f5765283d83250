"""Read back a CSV written by kzring.tables.emit_csv, for round-trip tests."""

import numpy as np


def read_csv(path):
    """The metadata, column names and columns of the file at path.

    A column whose cells all parse as floats comes back as a float array,
    any other as a list of its cells.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    assert lines.pop() == "", "the last line must end in LF"
    metadata = {}
    while lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        metadata[key] = value
    names = tuple(lines.pop(0).split(","))
    cells = list(zip(*(line.split(",") for line in lines))) or [()] * len(names)
    return metadata, names, [_column(c) for c in cells]


def _column(cells):
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return list(cells)


def assert_reads_back(path, table, rtol=1e-11, atol=1e-13):
    """The file holds table: same metadata and columns, numbers within rtol/atol."""
    metadata, names, columns = read_csv(path)
    assert metadata == table.metadata
    assert names == table.columns
    for name, got, want in zip(names, columns, table.data):
        if isinstance(want, np.ndarray):
            scale = np.maximum(np.abs(got), np.abs(want))
            assert np.all(np.abs(got - want) <= np.maximum(rtol * scale, atol)), name
        else:
            assert list(got) == list(want), name
