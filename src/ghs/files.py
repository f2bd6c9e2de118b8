"""File output shared by the CLI, the study runner and the chain export."""

import functools
import itertools
import os

import numpy as np


def atomic_write(path, chunks):
    """Write bytes to ``path`` via a temporary file, so it appears only once
    whole; if making or writing the chunks fails, the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_csv(path, header, rows):
    """``header`` (names joined by commas), then one line per row, streamed
    through write_csv_chunks: a float as its repr, None as an empty cell,
    anything else as str."""

    def cell(v):
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    lines = (f"{','.join(map(cell, row))}\n".encode() for row in rows)
    write_csv_chunks(path, header.split(","), lines)


def csv_bytes(columns):
    """The CSV rows of one chunk of code columns, each a (rows, w) uint8 array
    of NUL-padded ASCII cells, as one bytes: the cells are copied into one
    buffer between their commas and newlines, and one compress drops the NULs."""
    rows = len(columns[0])
    buf = np.empty((rows, sum(c.shape[1] + 1 for c in columns)), dtype=np.uint8)
    at = 0
    for c in columns:
        buf[:, at:at + c.shape[1]] = c
        at += c.shape[1] + 1
        buf[:, at - 1] = ord(",")
    buf[:, -1] = ord("\n")
    flat = buf.ravel()
    return flat[flat != 0].tobytes()


def write_csv_chunks(path, header, chunks):
    """A CSV file of a header (a list of names) and chunks of CSV rows, each
    one bytes (as ``csv_bytes`` makes them), streamed through atomic_write."""
    head = (",".join(header) + "\n").encode()
    atomic_write(path, itertools.chain([head], chunks))


def encode_cells(strings):
    """ASCII strings as a (len, w) uint8 array of NUL-padded code rows."""
    cells = np.array(strings, dtype="S")
    return cells.view(np.uint8).reshape(len(cells), -1)


# Shortest round-trip reprs on arrays: Schubfach (R. Giulietti, "The Schubfach
# way to render doubles", 2020) in uint64 arithmetic, as in the JDK's
# DoubleToDecimal but without its two-digit minimum, then CPython's 'r'
# layout (format_float_short) by table-driven gathers of code points.

# values formatted at a time: each temporary is 64 KB, which malloc reuses;
# larger ones are mapped afresh and page-fault on every piece
_PIECE = 1 << 13
_GATHER = 1 << 11  # values gathered at a time: their code indices take 384 KB
_M32, _M63 = np.uint64(0xFFFFFFFF), np.uint64((1 << 63) - 1)
_ONE = 0x3FF0000000000000  # the bits of 1.0, formatted in place of the specials
_POW10 = 10 ** np.arange(18, dtype=np.uint64)

# Each value's code points are gathered from eight units of four: the
# four-digit groups of its 17-digit significand, "000d" then "dddd" four
# times (slots 3 to 19 hold the digits); its exponent, "+dd\0" or "-ddd";
# "-.0e"; and "\0\0\0\0".
_DIG, _ESIGN, _MINUS, _DOT, _ZERO, _E, _NUL = 3, 20, 24, 25, 26, 27, 28
_EXP0 = 10000 + 324  # the unit of exponent x is _EXP0 + x


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| < 1000, from integers."""
    return (e * 913124641741) >> 38


@functools.cache
def _tables():
    """The kernel's tables, made on first use (about 3 ms), not at import:
    g, the units, their trailing zeros, the layout as the unit and the slot
    within it, and the specials.

    g: for 10^-k = beta 2^r with 2^125 <= beta < 2^126 and k in [-324, 292],
    g = floor(beta) + 1, as g1 = g >> 63, the 32-bit limbs of g1, g0 = g mod
    2^63 and the 32-bit limbs of g0, one row each.  The units: every unit of
    four code points, 4 bytes each; the trailing zeros of each four-digit
    unit (4 for 0000).  The layout: the 24 slots of each repr, one row per
    (sign, digit count n, form), form 0 for d.ddde+xx and 4 + decpt for the
    positional form, decpt in [-3, 16], where the value is 0.d1...dn 10^decpt.
    The specials: the codes of 0.0, -0.0, inf, -inf and nan.
    """
    limbs = []
    for k in range(-324, 293):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            g = (10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift) + 1
        else:
            g = (1 << shift) // 10 ** k + 1
        g0 = g & (1 << 63) - 1
        limbs.append((g >> 63, g >> 95, g >> 63 & 0xFFFFFFFF, g0, g0 >> 32, g & 0xFFFFFFFF))
    four = np.arange(10000)  # the four-digit units
    units = np.concatenate([
        four[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48,
        np.frombuffer(("".join(f"{x:+03d}".ljust(4, "\0") for x in range(-324, 309))
                       + "-.0e\0\0\0\0").encode("ascii"), np.uint8).reshape(-1, 4),
    ]).astype(np.uint8).view("V4").ravel()
    digits = bytes(range(_DIG, _DIG + 17))
    rows = []
    for sign in (b"", bytes([_MINUS])):
        for n in range(1, 18):
            for decpt in range(-4, 17):
                if decpt == -4:  # form 0
                    row = digits[:1] + bytes([_DOT]) + digits[1:n] if n > 1 else digits[:1]
                    row += bytes([_E, _ESIGN, _ESIGN + 1, _ESIGN + 2, _ESIGN + 3])
                elif decpt <= 0:
                    row = bytes([_ZERO, _DOT]) + bytes([_ZERO]) * -decpt + digits[:n]
                elif decpt < n:
                    row = digits[:decpt] + bytes([_DOT]) + digits[decpt:n]
                else:
                    row = digits[:n] + bytes([_ZERO]) * (decpt - n) + bytes([_DOT, _ZERO])
                rows.append((sign + row).ljust(24, bytes([_NUL])))
    layout = np.frombuffer(b"".join(rows), np.uint8).reshape(-1, 24).astype(np.intp)
    specials = np.zeros((5, 24), dtype=np.uint8)
    specials[:, :4] = encode_cells(["0.0", "-0.0", "inf", "-inf", "nan"])
    zeros = sum(four % 10 ** j == 0 for j in range(1, 5))
    tables = (np.array(limbs, dtype=np.uint64).T.copy(), units, zeros, layout // 4, layout % 4, specials)
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of the products of two uint64 arrays, from their
    32-bit limbs."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _rop(y, x):
    """g cp / 2^127 rounded to odd, as DoubleToDecimal.rop, from the products
    y = g1 cp and x = g0 cp as (high, low) pairs of uint64 arrays."""
    z = (y[1] >> 1) + x[0]
    return (y[0] + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _add_shifted(p, a, s, up):
    """The 128-bit (high, low) ``p`` plus (``up``) or minus a 2^s, 0 < s < 64."""
    high, low = p
    ah, al = a >> 64 - s, a << s
    if up:
        total = low + al
        return high + ah + (total < low), total
    return high - ah - (low < al), low - al


def _shortest(bits, g_table):
    """The shortest decimal f 10^e that reads back as each finite nonzero
    double of ``bits`` (the nearest such if several, even f on a tie), as
    (f, e) with f < 10^17: its significant digits are those of f less its
    trailing zeros."""
    t = bits & np.uint64((1 << 52) - 1)
    bq = (bits >> 52 & 0x7FF).view(np.int64)
    normal = bq != 0
    c = t + (normal << np.uint64(52))
    q = bq - 1075 + ~normal  # the value is c 2^q
    irregular = (t == 0) & (bq > 1)  # a power of two: a narrower gap below
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)
    g1, g1h, g1l, g0, g0h, g0l = g_table.take(k + 324, axis=1)
    odd = c & 1  # an odd c does not round to the ends of its interval
    cp = c << h + 2
    c1, c0 = cp >> 32, cp & _M32
    y, x = (_mulhi(g1h, g1l, c1, c0), g1 * cp), (_mulhi(g0h, g0l, c1, c0), g0 * cp)
    vb = _rop(y, x)
    # the products at the ends of the interval, cp - 2^(h+1) (cp - 2^h at a
    # power of two) and cp + 2^(h+1), from those at cp
    lo, hi = h + 1 - irregular, h + 1
    vbl = _rop(_add_shifted(y, g1, lo, False), _add_shifted(x, g0, lo, False)) + odd
    vbr = _rop(_add_shifted(y, g1, hi, True), _add_shifted(x, g0, hi, True)) - odd
    s = vb >> 2
    sp10 = s // 10 * 10
    # the one multiple of 10 10^k in the interval, else the nearer of s and s + 1
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10 << 2) <= vbr
    uin, win = vbl <= s << 2, (s + 1 << 2) <= vbr
    mid = (s << 2) + 2
    closer = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    f = s + 1 - np.where(uin != win, uin, closer)
    f += (upin != wpin) * (sp10 + 10 - upin * np.uint64(10) - f)
    return f, k


def float_codes(values):
    """The ``repr`` of each value of a float array as its ASCII code points,
    NUL-padded to 24: a uint8 array of shape ``values.shape + (24,)``, whose
    rows decode to ``map(repr, values.tolist())``.  Zeros, infinities and NaNs
    take their codes from a table."""
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    special = ~np.isfinite(flat) | (flat == 0)
    pieces = max(-(-flat.size // _PIECE), 1)
    p = max(-(-flat.size // pieces), 1)  # pieces of equal length, the last padded
    bits = np.full(pieces * p, _ONE, dtype=np.uint64)
    bits[:flat.size] = flat.view(np.uint64)
    bits[:flat.size][special] = _ONE
    g_table, unit_table, zeros, layout_units, layout_slots, specials = _tables()
    # work buffers, and the layout as indices into a piece's units (unit-major)
    units, idx = np.empty((6, p), dtype=np.intp), np.empty((min(p, _GATHER), 24), dtype=np.intp)
    src = np.empty((8, p), dtype=unit_table.dtype)
    src[6:] = unit_table[-2:, None]  # "-.0e" and "\0\0\0\0", the same for every value
    codes = np.empty((pieces * p, 24), dtype=np.uint8)
    layout = (layout_units * (4 * p) + layout_slots).view(f"V{24 * idx.itemsize}").ravel()
    offsets = np.arange(0, 4 * p, 4)[:, None]
    for lo in range(0, flat.size, p):
        f, e = _shortest(bits[lo:lo + p], g_table)
        # the digit count n of f, from its binary exponent and one comparison
        n = (f.astype(float).view(np.int64) >> 52) * 1233 - 1023 * 1233 >> 12
        n += 1 + (f >= _POW10.take(n + 1))
        decpt = e + n
        f *= _POW10.take(17 - n)  # the 17-digit significand, then its units
        hi = f // 10 ** 8
        low = f - hi * 10 ** 8
        units[0] = a = hi // 10 ** 8
        r = hi - a * 10 ** 8
        units[1] = a = r // 10 ** 4
        units[2] = r - a * 10 ** 4
        units[3] = a = low // 10 ** 4
        units[4] = low - a * 10 ** 4
        units[5] = decpt - 1 + _EXP0
        unit_table.take(units, out=src[:6], mode="clip")
        # the digit count n of the repr: 17 less the significand's trailing zeros
        t1, t2, t3, t4 = zeros.take(units[1:5])
        z2, z3, z4 = units[2:5] == 0
        n = 17 - (t4 + z4 * (t3 + z3 * (t2 + z2 * t1)))
        # each value's layout row, then its 24 code points from its units
        positional = (decpt > -4) & (decpt <= 16)
        row = ((bits[lo:lo + p] >> 63).view(np.int64) * 17 + n - 1) * 21 + positional * (decpt + 4)
        for b in range(0, p, len(idx)):
            part = idx[:p - b]
            layout.take(row[b:b + len(part)], out=part.view(layout.dtype).ravel(), mode="clip")
            part += offsets[b:b + len(part)]
            src.view(np.uint8).ravel().take(part, out=codes[lo + b:lo + b + len(part)], mode="clip")
    codes = codes[:flat.size]
    if special.any():
        v = flat[special]
        row = np.where(v != v, 4, np.isinf(v) * 2 + np.signbit(v))  # 0.0, -0.0, inf, -inf, nan
        codes[special] = specials.take(row, axis=0)
    return codes.reshape(values.shape + (24,))


def float_cells(values):
    """``repr`` of each value of a float array as ASCII bytes, in an object
    array of the values' shape: viewing the codes as S24 drops their NUL
    padding in C."""
    return float_codes(values).view("S24")[..., 0].astype(object)

