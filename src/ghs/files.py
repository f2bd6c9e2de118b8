"""File output shared by the CLI, the study runner and the chain export."""

import functools
import os

import numpy as np


def atomic_write(path, lines):
    """Write strings to ``path`` via a temporary file, so it appears only once
    whole; if making or writing the lines fails, the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_csv(path, header, rows):
    """``header``, then one line per row, streamed through atomic_write: a
    float as its repr, None as an empty cell, anything else as str."""

    def cell(v):
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    def lines():
        yield f"{header}\n"
        for row in rows:
            yield f"{','.join(map(cell, row))}\n"

    atomic_write(path, lines())


def _csv_chunks(cell_chunks):
    """The CSV lines of each chunk of cells (one list of strings per column),
    one string per chunk."""
    for cells in cell_chunks:
        # one join of the cells interleaved with their separators is
        # faster than a join per row
        step = 2 * len(cells)
        text = ([","] * (step - 1) + ["\n"]) * len(cells[0])
        for k, col in enumerate(cells):
            text[2 * k::step] = col
        yield "".join(text)


# Shortest round-trip reprs on arrays: Schubfach (R. Giulietti, "The Schubfach
# way to render doubles", 2020) in uint64 arithmetic, as in the JDK's
# DoubleToDecimal but without its two-digit minimum, then CPython's 'r'
# layout (format_float_short) by table-driven gathers of code points.

# values formatted at a time: each temporary is 64 KB, which malloc reuses;
# larger ones are mapped afresh and page-fault on every piece
_PIECE = 1 << 13
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
    g, the units and the layout as the unit and the slot within it.

    g: for 10^-k = beta 2^r with 2^125 <= beta < 2^126 and k in [-324, 292],
    g = floor(beta) + 1, as g1 = g >> 63 and the 32-bit limbs of g1 and of
    g0 = g mod 2^63, one row each.  The units: every unit of four code points,
    16 bytes each.  The layout: the 24 slots of each repr, one row per (sign,
    digit count n, form), form 0 for d.ddde+xx and 4 + decpt for the
    positional form, decpt in [-3, 16], where the value is 0.d1...dn 10^decpt.
    """
    limbs = []
    for k in range(-324, 293):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            g = (10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift) + 1
        else:
            g = (1 << shift) // 10 ** k + 1
        limbs.append((g >> 63, g >> 95, g >> 63 & 0xFFFFFFFF, g >> 32 & 0x7FFFFFFF, g & 0xFFFFFFFF))
    units = np.concatenate([
        np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48,
        np.frombuffer(("".join(f"{x:+03d}".ljust(4, "\0") for x in range(-324, 309))
                       + "-.0e\0\0\0\0").encode("ascii"), np.uint8).reshape(-1, 4),
    ]).astype(np.uint32).view("V16").ravel()
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
    tables = np.array(limbs, dtype=np.uint64).T.copy(), units, layout // 4, layout % 4
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of the products of two uint64 arrays, from their
    32-bit limbs."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _rop(g, cp):
    """g cp / 2^127 rounded to odd, as DoubleToDecimal.rop."""
    g1, g1h, g1l, g0h, g0l = g
    c1, c0 = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(g0h, g0l, c1, c0)
    return (_mulhi(g1h, g1l, c1, c0) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits, g_table):
    """The shortest decimal f 10^e that reads back as each finite nonzero
    double of ``bits`` (the nearest such if several, even f on a tie), with
    f free of trailing zeros: (f, e)."""
    t = bits & np.uint64((1 << 52) - 1)
    bq = (bits >> 52 & 0x7FF).view(np.int64)
    normal = bq != 0
    c = t + (normal << np.uint64(52))
    q = bq - 1075 + ~normal  # the value is c 2^q
    irregular = (t == 0) & (bq > 1)  # a power of two: a narrower gap below
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)
    g = g_table.take(k + 324, axis=1)
    odd = c & 1  # an odd c does not round to the ends of its interval
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + irregular) << h) + odd
    vbr = _rop(g, (cb + 2) << h) - odd
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
    e = k
    z = np.flatnonzero(f % 10 == 0)
    if z.size:
        fz, ez = f[z], e[z]
        for p in (16, 8, 4, 2, 1):
            fq = fz // 10 ** p
            y = fq * 10 ** p == fz
            fz += y * (fq - fz)
            ez += y * p
        f[z], e[z] = fz, ez
    return f, e


def float_reprs(values):
    """``repr`` of each value of a float array, the same strings as
    ``map(repr, values.tolist())``: a list for a 1-D array, a list of row
    lists for a 2-D one.  Zeros, infinities and NaNs go through repr."""
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    special = ~np.isfinite(flat) | (flat == 0)
    pieces = max(-(-flat.size // _PIECE), 1)
    p = max(-(-flat.size // pieces), 1)  # pieces of equal length, the last padded
    bits = np.full(pieces * p, _ONE, dtype=np.uint64)
    bits[:flat.size] = flat.view(np.uint64)
    bits[:flat.size][special] = _ONE
    g_table, unit_table, layout_units, layout_slots = _tables()
    # work buffers, and the layout as indices into a piece's units (unit-major)
    units = np.empty((8, p), dtype=np.intp)
    units[6:] = [[len(unit_table) - 2], [len(unit_table) - 1]]
    src, idx = np.empty((8, p), dtype=unit_table.dtype), np.empty((p, 24), dtype=np.intp)
    codes = np.empty((p, 24), dtype=np.uint32)
    layout = (layout_units * (4 * p) + layout_slots).view(f"V{24 * idx.itemsize}").ravel()
    offsets = np.arange(0, 4 * p, 4)[:, None]
    cells = []
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
        unit_table.take(units, out=src, mode="clip")
        # each value's layout row, then its 24 code points from its units
        positional = (decpt > -4) & (decpt <= 16)
        row = ((bits[lo:lo + p] >> 63).view(np.int64) * 17 + n - 1) * 21 + positional * (decpt + 4)
        layout.take(row, out=idx.view(layout.dtype).ravel(), mode="clip")
        idx += offsets
        src.view(np.uint32).ravel().take(idx, out=codes, mode="clip")
        text = codes.view("U24")[:flat.size - lo, 0]
        where = special[lo:lo + p]
        if where.any():
            text[where] = [repr(v) for v in flat[lo:lo + p][where].tolist()]
        cells += text.tolist()
    if values.ndim == 2:
        m = values.shape[1]
        return [cells[i * m:(i + 1) * m] for i in range(values.shape[0])]
    return cells
