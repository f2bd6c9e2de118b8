"""The byte CSV writers of ghs.files against ``",".join(map(repr, row)) + "\\n"``.

A chunk reaches ``csv_bytes`` as code columns, one (rows, w) uint8 array of
NUL-padded ASCII cells per column; the writer lays the cells out between
their commas and newlines and drops the padding.  ``float_cells`` makes each
value's repr as bytes, the cells the CLI's grid writer builds its templates
from.  The cases here: columns of different widths, one column, an empty
chunk, the values repr formats itself and the extremes of the float range.
"""

import math

import numpy as np
import pytest

from ghs.files import csv_bytes, encode_cells, float_cells, float_codes, write_csv_chunks

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-323, 1.7976931348623157e308]


def reference(table):
    """The CSV rows of a float table, by repr."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def trimmed(codes):
    """A code array cut to its longest cell."""
    return codes[:, :np.count_nonzero(codes.any(axis=0))]


def test_columns_of_different_widths():
    rng = np.random.default_rng(4)
    table = np.column_stack([
        rng.integers(0, 10, 500) / 4,  # short cells: "0.0" to "2.25"
        rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),  # up to 24 code points
        -rng.random(500),
    ])
    full = [float_codes(col) for col in table.T]
    widths = [c.shape[1] for c in map(trimmed, full)]
    assert widths[0] == 4 and widths[1] == 24 and 4 < widths[2] < 24
    assert csv_bytes(full) == reference(table)
    # a column at its own width next to columns at 24, and one built from strings
    assert csv_bytes([trimmed(full[0]), full[1], trimmed(full[2])]) == reference(table)
    assert csv_bytes([encode_cells(list(map(repr, col))) for col in table.T.tolist()]) == reference(table)


def test_one_column():
    values = np.random.default_rng(5).standard_normal(1000)
    assert csv_bytes([float_codes(values)]) == reference(values[:, None])
    assert csv_bytes(float_codes(values[None, :])) == reference(values[:, None])


def test_empty_chunk():
    assert csv_bytes([float_codes(np.empty(0)), float_codes(np.empty(0))]) == b""
    assert csv_bytes(float_codes(np.empty((3, 0)))) == b""


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_specials_and_extremes(sign):
    values = sign * np.array(SPECIALS)
    table = np.column_stack([values, values[::-1], np.roll(values, 3)])
    assert csv_bytes(float_codes(table.T)) == reference(table)
    assert float_cells(values).tolist() == [repr(v).encode() for v in values.tolist()]
    cells = float_cells(table.T)
    assert cells.dtype == object and cells.shape == table.T.shape
    assert cells.T.tolist() == [[repr(v).encode() for v in row] for row in table.tolist()]


def test_written_file(tmp_path):
    table = np.resize(SPECIALS, (9000, 3))
    table[:, 1] = np.random.default_rng(6).standard_normal(9000)
    chunks = (float_codes(table[lo:lo + 4096].T) for lo in range(0, len(table), 4096))
    write_csv_chunks(tmp_path / "t.csv", ["a", "b", "c"], map(csv_bytes, chunks))
    assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n" + reference(table)
