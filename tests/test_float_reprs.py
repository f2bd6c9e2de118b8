"""The array formatter of ghs.files against CPython's repr, string for string.

``float_cells`` runs Dragonbox in uint64 arithmetic and lays the digits out as
repr does, and reads the doubles of zero fraction field and NaN from a table;
every case here compares its cells, the bytes the CLI writes, with
``repr(v).encode()``: random bit patterns, the values next to powers of ten
and of two, both signs of the table's doubles, subnormals, large integers,
short decimals, decimals of 15 to 17 digits, the switch between positional
and scientific form, the values repr formats itself, and the piece
boundaries; together the cases reach each of the kernel's rare paths.  Fixed
seeds; a RuntimeWarning (an overflow in a scalar step) is an error, as
pyproject.toml makes it in every test.
"""

import collections
import math

import numpy as np
import pytest

from ghs import files
from ghs.files import _PIECE, float_cells


def mismatches(values):
    """The first (repr, float_cells) pairs that differ, for a 1-D array."""
    values = np.asarray(values, dtype=float)
    got, want = float_cells(values).tolist(), [repr(v).encode() for v in values.tolist()]
    assert len(got) == len(want)
    return [(w, g) for g, w in zip(got, want) if g != w][:5]


def around(centers, ulps):
    """The positive doubles within ``ulps`` bit steps of each center."""
    bits = np.asarray(centers, dtype=float).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    return bits[(bits > 0) & (bits < 0x7FF0000000000000)].view(float)


def test_random_bit_patterns():
    # every class of double: NaN payloads, infinities, subnormals, both signs
    bits = np.random.default_rng(20).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert mismatches(bits.view(float)) == []


def test_powers_of_ten_and_two():
    tens = [float(f"1e{j}") for j in range(-323, 309)]
    twos = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    assert mismatches(around(tens, 64)) == []
    assert mismatches(around(twos, 64)) == []


def test_doubles_read_from_the_table():
    # the doubles whose fraction field is zero take their reprs from a table
    # row, by sign and exponent, and NaN from one more: both signs of every
    # power of two (2^-1074 to 2^-1023 are subnormals, formatted by the
    # kernel), of zero and of inf, and NaNs of either sign bit and any payload
    twos = np.array([math.ldexp(1.0, e) for e in range(-1074, 1024)])
    assert mismatches(np.concatenate([twos, -twos, [0.0, -0.0, math.inf, -math.inf]])) == []
    payloads = np.array([1, 2, 3, 1 << 50, 1 << 51, (1 << 51) + 1, (1 << 52) - 1], dtype=np.uint64)
    nans = np.concatenate([0x7FF0000000000000 | payloads, 0xFFF0000000000000 | payloads])
    assert np.isnan(nans.view(float)).all()
    assert float_cells(nans.view(float)).tolist() == [b"nan"] * nans.size


def test_subnormals():
    assert mismatches(np.arange(1, 2**16, dtype=np.int64).view(float)) == []
    assert mismatches(around([2.2250738585072014e-308], 2**10)) == []  # the smallest normal


def test_integers_past_the_exact_range():
    centers = [2.0**53, 1e16, 1e17, 2.0**63]
    ints = np.concatenate([c + np.arange(-3000, 3000, dtype=float) for c in centers])
    assert mismatches(around(centers, 5000)) == []
    assert mismatches(ints) == []


def test_short_decimals():
    k = np.arange(1, 1000)
    exponents = list(range(-330, -300)) + list(range(-25, 26)) + list(range(280, 309))
    values = [float(f"{a}e{j}") for j in exponents for a in k.tolist()]
    assert mismatches(values) == []


@pytest.mark.parametrize("digits", [15, 16, 17])
def test_decimals_of_15_to_17_digits(digits):
    # exactly ``digits`` significant digits, at every decimal exponent of a double
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 20000, dtype=np.int64)
    exponents = rng.integers(-324, 309, 20000) - digits + 1
    values = [float(f"{m}e{x}") for m, x in zip(mantissas.tolist(), exponents.tolist())]
    assert mismatches(values) == []


def test_cases_reach_each_rare_path(monkeypatch):
    # the parity products run only where r == delta (on 2c - 1, odd) or where
    # 100 divides the distance (on 2c, even): each must be reached by the
    # cases above, not only exist
    reached = collections.Counter()
    parity = files._parity

    def spy_parity(w, rows, beta):
        reached["lower end" if w[0] & 1 else "value"] += w.size
        return parity(w, rows, beta)

    monkeypatch.setattr(files, "_parity", spy_parity)
    test_powers_of_ten_and_two()
    test_short_decimals()
    for digits in (15, 16, 17):
        test_decimals_of_15_to_17_digits(digits)
    assert set(reached) == {"lower end", "value"}, reached


@pytest.mark.parametrize("value, text", [
    (1e-4, "0.0001"), (1e-5, "1e-05"), (0.00012345, "0.00012345"), (1.2345e-05, "1.2345e-05"),
    (9999999999999998.0, "9999999999999998.0"), (1e16, "1e+16"), (1.5e16, "1.5e+16"),
    (123.0, "123.0"), (0.5, "0.5"), (5e-324, "5e-324"), (1e-323, "1e-323"),
    (8e-323, "8e-323"), (1.7976931348623157e308, "1.7976931348623157e+308"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"), (1e100, "1e+100"),
])
def test_switch_between_forms(value, text):
    assert float_cells(np.array([value, -value])).tolist() == [text.encode(), b"-" + text.encode()]


def test_values_repr_formats_itself():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    assert float_cells(np.array(specials)).tolist() == [b"0.0", b"-0.0", b"inf", b"-inf", b"nan", b"nan"]
    assert float_cells(np.empty(0)).tolist() == []
    assert float_cells(np.empty((3, 0))).tolist() == [[], [], []]


@pytest.mark.parametrize("size", [1, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 3])
def test_piece_boundaries(size):
    # specials at the ends of the array and of its pieces
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    values[[0, -1]] = [-0.0, math.nan]
    values[_PIECE - 1::_PIECE] = math.inf
    assert mismatches(values) == []


def test_two_dimensional_gives_rows():
    table = np.random.default_rng(3).standard_normal((50, 4))
    table[7, 2] = -0.0
    for values in (table, table.T):
        assert float_cells(values).tolist() == [[repr(v).encode() for v in row] for row in values.tolist()]
