"""Output checks: CSV parsing, the reference-table rule and file digests.

The benchmark reads what the program wrote to disk, with its own parser,
so the checks do not depend on how kzring stores a table in memory.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
import os

import numpy as np

# DataTable.isclose's rule, applied element-wise with math.isclose semantics:
# |a - b| <= max(RTOL * max(|a|, |b|), ATOL).
RTOL = 1e-11
ATOL = 1e-13
MZ_TOL = 1e-9


class CheckError(Exception):
    """An output of the program is wrong."""


class Table:
    """A CSV as kzring's emit_csv writes it: metadata, header, columns."""

    def __init__(self, metadata: dict[str, str], columns: tuple[str, ...], lines: list[str], where: str):
        self.metadata = metadata
        self.columns = columns
        self.n_rows = len(lines)
        try:
            values = np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2) if lines else None
        except ValueError:
            values = None
        if values is not None and values.shape == (len(lines), len(columns)):
            self.data = {col: values[:, j] for j, col in enumerate(columns)}
            return
        cells = [line.split(",") for line in lines]
        if any(len(row) != len(columns) for row in cells):
            raise CheckError(f"{where}: a row's width differs from the {len(columns)} columns")
        self.data = {}
        for j, col in enumerate(columns):
            raw = [row[j] for row in cells]
            try:
                self.data[col] = np.array(raw, dtype=float)
            except ValueError:
                self.data[col] = raw

    @classmethod
    def parse(cls, text: str, where: str) -> "Table":
        metadata: dict[str, str] = {}
        columns = None
        lines = []
        for line in text.split("\n"):
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(" = ")
                metadata[key] = value
            elif columns is None:
                columns = tuple(line.split(","))
            else:
                lines.append(line)
        if columns is None:
            raise CheckError(f"{where}: no header row")
        return cls(metadata, columns, lines, where)

    @classmethod
    def read(cls, path: str) -> "Table":
        opener = lzma.open if path.endswith(".xz") else open
        with opener(path, "rt", encoding="utf-8", newline="\n") as fh:
            return cls.parse(fh.read(), os.path.basename(path))

    def column(self, name: str) -> np.ndarray:
        col = self.data[name]
        if not isinstance(col, np.ndarray):
            raise CheckError(f"column {name} is not numeric")
        return col


def columns_close(a: np.ndarray, b: np.ndarray) -> bool:
    diff = np.abs(a - b)
    tol = np.maximum(RTOL * np.maximum(np.abs(a), np.abs(b)), ATOL)
    return bool(np.all(diff <= tol))


def require_close(got: Table, ref: Table, where: str, skip_meta: tuple[str, ...] = ()) -> None:
    """Raise unless `got` matches `ref` by the reference rule.

    Columns and metadata must be identical (keys in `skip_meta` excepted),
    string cells equal, numeric cells close by RTOL/ATOL.
    """
    if got.columns != ref.columns:
        raise CheckError(f"{where}: columns {got.columns} != reference {ref.columns}")
    if got.n_rows != ref.n_rows:
        raise CheckError(f"{where}: {got.n_rows} rows != reference {ref.n_rows}")
    meta_got = {k: v for k, v in got.metadata.items() if k not in skip_meta}
    meta_ref = {k: v for k, v in ref.metadata.items() if k not in skip_meta}
    if list(meta_got.items()) != list(meta_ref.items()):
        diff = sorted(k for k in set(meta_got) | set(meta_ref) if meta_got.get(k) != meta_ref.get(k))
        raise CheckError(f"{where}: metadata differs from reference in {diff}")
    for col in ref.columns:
        a, b = got.data[col], ref.data[col]
        if isinstance(b, np.ndarray) and isinstance(a, np.ndarray):
            if not columns_close(a, b):
                worst = float(np.max(np.abs(a - b)))
                raise CheckError(f"{where}: column {col} off reference by up to {worst:.3e}")
        elif list(map(str, a)) != list(map(str, b)):
            raise CheckError(f"{where}: column {col} differs from reference")


def require_unit_interval(table: Table, where: str) -> None:
    for col in table.columns:
        if col.startswith("concurrence"):
            c = table.column(col)
            if not (np.all(c >= -1e-12) and np.all(c <= 1.0 + 1e-12)):
                raise CheckError(f"{where}: column {col} leaves [0, 1]")


def require_mean_magnetization(ensemble_json: str, where: str) -> bool:
    """mean(cos theta)/2 must equal m0z_target unless the sampler clamped.

    Returns whether the ensemble was clamped.
    """
    data = json.loads(ensemble_json)
    if data["clamped"]:
        return True
    mean = sum(math.cos(theta) for theta, _ in data["directions"]) / len(data["directions"]) / 2.0
    if abs(mean - data["m0z_target"]) > MZ_TOL:
        raise CheckError(
            f"{where}: ensemble mean m_z {mean!r} != target {data['m0z_target']!r}"
        )
    return False


def digests(directory: str) -> dict[str, str]:
    """sha256 of every file the program wrote into `directory`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def require_same_bytes(got: dict[str, str], first: dict[str, str], where: str) -> None:
    if got != first:
        changed = sorted(k for k in set(got) | set(first) if got.get(k) != first.get(k))
        raise CheckError(f"{where}: output bytes differ from the first repeat in {changed}")
