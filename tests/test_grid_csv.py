"""write_grid_csv: byte identity with the csv.writer loop, and its memory."""

import csv

import numpy as np
import pytest

import nullwave.state as state_mod
from nullwave.grid import DNGrid
from nullwave.state import CSV_COLUMNS, write_grid_csv


def _csv_writer_grid(path, grid, columns):
    """The per-row csv.writer loop: one repr per value, excel dialect."""
    ub = list(map(repr, grid.ub.tolist()))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(("u", "ubar", *columns))
        for i, u in enumerate(map(repr, grid.u.tolist())):
            rows = [map(repr, a[i].tolist()) for a in columns.values()]
            wr.writerows(zip([u] * len(ub), ub, *rows))


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


SPECIAL = np.array([
    0.0, -0.0, _nan(0x7FF8000000000001), _nan(0xFFF8000000000123),
    np.inf, -np.inf,
    5e-324, 2.2250738585072014e-308,
    9.999999999999999e-05, 1e-05, 9999999999999998.0, 1e16,
    0.1 + 0.2,
])


def _columns(n, rng):
    """Columns mixing the special values, repeats and all-distinct data.

    down_rows repeats one row, -0.0 beside 0.0 in it, so every block's
    values are all in the previous block.
    """
    # distinct bit patterns, the two NaNs included
    assert np.unique(SPECIAL.view(np.int64)).size == SPECIAL.size
    size = n * n
    special = np.resize(SPECIAL, size)
    mixed = np.where(rng.random(size) < 0.5, special, rng.choice(SPECIAL, size))
    distinct = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    assert np.unique(distinct).size == size
    cols = {
        "special": special, "mixed": mixed,
        "constant": np.full(size, 0.1 + 0.2), "distinct": distinct,
        "neg_zero": np.full(size, -0.0),
        "down_rows": np.tile(np.resize(SPECIAL, n), n),
    }
    return {k: v.reshape(n, n) for k, v in cols.items()}


@pytest.mark.parametrize("values", [1, 11, 33, 44, 132, 440],
                         ids=["narrower-than-a-row", "1-row", "3-rows",
                              "4-rows", "12-rows", "40-rows"])
def test_bytes_match_csv_writer(tmp_path, monkeypatch, values):
    # 11 nodes a side: blocks of 3 and 4 rows leave a short last block,
    # and 12 or 40 rows take the whole grid in one block
    grid = DNGrid.square(0.5, 0.1)
    n = grid.n_nodes
    assert n == 11
    monkeypatch.setattr(state_mod, "CSV_BLOCK_VALUES", values)
    cols = _columns(n, np.random.default_rng(values))
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    _csv_writer_grid(ref, grid, cols)
    write_grid_csv(out, grid, cols)
    assert out.read_bytes() == ref.read_bytes()
    assert out.read_bytes().count(b"\r\n") == 1 + n * n


def test_state_columns_match_csv_writer(tmp_path):
    # the state table's own header, at the default block size
    grid = DNGrid.square(3.0, 0.05)
    rng = np.random.default_rng(3)
    n = grid.n_nodes
    cols = {c: rng.standard_normal((n, n)) for c in CSV_COLUMNS[2:]}
    cols["sigma"][:, ::2] = 0.0
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    _csv_writer_grid(ref, grid, cols)
    write_grid_csv(out, grid, cols)
    assert out.read_bytes() == ref.read_bytes()


def _write_peak(peak_fields, path, radius):
    """tracemalloc peak (bytes) of writing ten all-distinct columns."""
    grid = DNGrid.square(radius, 0.05)
    rng = np.random.default_rng(0)
    n = grid.n_nodes
    cols = {c: rng.standard_normal((n, n)) for c in CSV_COLUMNS[2:]}
    return peak_fields(lambda: write_grid_csv(path, grid, cols), grid) \
        * (8 * n * n)


def test_writer_memory(peak_fields, tmp_path):
    # Radius 3, h 0.05: 121 nodes a side, 8-row blocks of 968 values per
    # column.  Measured 1.21 MiB; the bound adds 0.25 MiB.
    peak = _write_peak(peak_fields, tmp_path / "a.csv", 3.0)
    assert peak <= 1.46 * 2**20
    # Twice the rows (241 a side, 4-row blocks of 964 values): the block,
    # not the grid, sets the peak.  Measured 1.22 MiB; only the axis
    # strings grow.  The per-row csv.writer loop grows 0.23 -> 0.31 MiB.
    assert _write_peak(peak_fields, tmp_path / "b.csv", 6.0) <= 1.03 * peak
