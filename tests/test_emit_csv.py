"""emit_csv bytes pinned to the per-row template writer it replaced."""

import tracemalloc

import numpy as np
import pytest

from kzring import _workers, tables
from kzring.config import ScenarioConfig
from kzring.runner import oracle_report, preset_config, run_preset, run_scenario
from kzring.tables import CELL_POINTS, DataTable, emit_csv

# The benchmark's sweep: fig5 scaled to 200 couplings x 200 times.
BENCH_SWEEP = ScenarioConfig(
    mode="sweep-g", label="sweep", n=1000, h_para=5.0, h0=1.001, v=5e-5,
    t0_offset=0.0, t_points=200, g_sweep_points=200, g_sweep_max=0.3,
    g_max=0.3, g_to_h_max=0.3,
)


def reference_csv(table: DataTable) -> bytes:
    """The per-row `template % row` writer that emit_csv used to run."""
    lines = [f"# {k} = {v}" for k, v in table.metadata.items()]
    lines.append(",".join(table.columns))
    numeric = [isinstance(c, np.ndarray) for c in table.data]
    template = ",".join("%.12g" if is_num else "%s" for is_num in numeric)
    cells = [c.tolist() if is_num else c for c, is_num in zip(table.data, numeric)]
    lines.extend(template % row for row in zip(*cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emitted(table: DataTable, tmp_path) -> bytes:
    path = tmp_path / "table.csv"
    emit_csv(table, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "oracle-check"])
def test_preset_and_oracle_tables_match_the_template_writer(name, tmp_path):
    if name == "oracle-check":
        tables = {"oracle": oracle_report()}
    else:
        tables = run_preset(name).tables
    for key, table in tables.items():
        assert emitted(table, tmp_path) == reference_csv(table), key


@pytest.mark.parametrize(
    "cfg", [BENCH_SWEEP, preset_config("fig5")[0]], ids=["bench-sweep", "fig5"]
)
def test_sweep_tables_format_few_cells_one_at_a_time(cfg, monkeypatch, tmp_path):
    # Zero times and concurrences far below 1e-10 lie on the vector path;
    # only cells in the tie band go per-cell, about 5e-4 of random digits.
    # The bound, 2e-3 of cells or 4 times that rate, was set before measuring.
    seen = []
    per_cell = tables._per_cell
    monkeypatch.setattr(
        tables, "_per_cell", lambda values: seen.extend(values.tolist()) or per_cell(values)
    )
    table = run_scenario(cfg).tables["sweep"]
    assert emitted(table, tmp_path) == reference_csv(table)
    assert len(seen) <= 2e-3 * sum(len(c) for c in table.data)
    assert (np.concatenate(table.data) == 0).any()
    assert (np.abs(np.concatenate(table.data[2:4])) < 1e-10).any()


def numeric_table(rows: int, seed: int) -> DataTable:
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-11, 1e12])
    columns = (
        np.linspace(0.0, 1.0, rows),
        rng.uniform(-1.0, 1.0, rows) * 10.0 ** rng.integers(-14, 14, rows),
        rng.choice(special, rows),
        rng.uniform(0.0, 1.0, rows),
    )
    return DataTable(("t", "value", "special", "unit"), columns, {"rows": str(rows)})


# Rows of numeric_table's 4 columns that fit in one block of the worker cut.
ONE_BLOCK = _workers.BLOCK_POINTS // (CELL_POINTS * 4)


# One block formats ONE_BLOCK rows in 4 full slices of compaction; the two
# blocks of ONE_BLOCK + 1 rows end in 0 and 4 cells past a slice, and
# SLICE_ROWS + 1 rows, in one block, 4 cells past the first slice.
SLICE_ROWS = tables.SLICE_CELLS // 4


@pytest.mark.parametrize("rows", [0, 1, SLICE_ROWS + 1, ONE_BLOCK, ONE_BLOCK + 1])
def test_row_counts_at_the_block_edges(rows, tmp_path):
    table = numeric_table(rows, seed=rows)
    assert emitted(table, tmp_path) == reference_csv(table)


def test_a_csv_block_keeps_its_compaction_index_to_one_slice():
    # One 3,276-row block of the bench sweep table, 16,380 cells: compacted
    # a slice at a time, the int64 index of np.compress spans one slice's
    # kept bytes (3.38 MiB traced for the block with one index, 2.45 MiB
    # with slices).
    table = run_scenario(BENCH_SWEEP).tables["sweep"]
    rows = _workers.BLOCK_POINTS // (CELL_POINTS * len(table.data))
    block = [c[:rows] for c in table.data]
    expected = tables._block(block)  # builds the lookup tables first
    tracemalloc.start()
    try:
        assert tables._block(block) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2**20, peak / 2**20


@pytest.mark.parametrize("rows", [1, ONE_BLOCK + 1])
def test_multibyte_strings_and_mixed_tuple_columns(rows, tmp_path):
    words = ["α", "", "plain", "日本語のセル", "😀 ok", "naïve-ß", "x" * 60]
    table = DataTable(
        ("label", "x", "y"),
        (
            [words[i % len(words)] for i in range(rows)],
            np.arange(rows) * 0.1,
            np.full(rows, -1.0 / 3.0),
        ),
        {"note": "strings é"},
    )
    assert isinstance(table.data[0], tuple)
    assert emitted(table, tmp_path) == reference_csv(table)
