"""File output shared by the CLI, the study runner and the chain export:
every file is written through atomic_write, every float table through
_write_table and every JSON document in write_json's layout."""

import functools
import itertools
import json
import math
import operator
import os

import numpy as np

_CHUNK = 8192  # rows formatted at a time: the CLI's tables, and each draw block of its sample


def atomic_write(path, chunks):
    """Write bytes to ``path`` via a temporary file, so it appears only once
    whole; if making or writing the chunks, or the rename, fails, the
    temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, doc):
    """``doc`` in the one layout of the package's JSON files: indent 1, sorted keys, a final newline."""
    atomic_write(path, [(json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()])


def write_csv(path, header, rows):
    """``header`` (names joined by commas), then one line per row, streamed
    through _write_table: a float as its repr, None as an empty cell,
    anything else as str."""

    def cell(v):
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    lines = (f"{','.join(map(cell, row))}\n".encode() for row in rows)
    _write_table(path, header.split(","), lines, "csv")


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


def _csv_chunks(tables, rows=_CHUNK):
    """The CSV rows of an iterable of float tables, each value its repr, as
    one bytes per ``rows`` rows."""
    for table in tables:
        for lo in range(0, len(table), rows):
            yield csv_bytes(float_codes(table[lo:lo + rows].T))
        del table  # free it before the next table is made


def _json_chunks(header, chunks, pole):
    """The text of ``json.dumps(docs, indent=1, sort_keys=True) + "\n"``,
    one chunk of rows at a time, from chunks of CSV rows of reprs (which is
    how json writes floats and ints).  Non-finite cells are null; with
    ``pole``, a row whose last cell is +inf (the log density at the origin)
    gets "pole": true."""
    keyed = operator.itemgetter(*sorted(range(len(header)), key=header.__getitem__))

    def template(keys):
        lines = ('  "pole": true' if k == "pole" else f'  "{k}": %s' for k in sorted(keys))
        return " {\n" + ",\n".join(lines) + "\n }"

    plain, at_pole = template(header), template(header + ["pole"])
    sep = "[\n"
    for chunk in chunks:
        text = chunk.decode()
        # reprs of finite values hold no letters: once -inf is null, "inf" is +inf
        cells = text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
        docs = [(at_pole if pole and line.endswith(",inf") else plain) % keyed(row.split(","))
                for line, row in zip(text.splitlines(), cells.splitlines())]
        if docs:
            yield sep + ",\n".join(docs)
            sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _write_table(path, header, chunks, fmt, pole=False):
    """Write chunks of CSV rows (bytes, each value its repr, 'inf' at the
    pole), streamed: as CSV under a header line (a list of names), or as the
    JSON of ``_json_chunks``."""
    if fmt == "csv":
        atomic_write(path, itertools.chain([(",".join(header) + "\n").encode()], chunks))
    else:
        atomic_write(path, map(str.encode, _json_chunks(header, chunks, pole)))


# Shortest round-trip reprs on arrays: Dragonbox (J. Jeon, "Dragonbox: A New
# Floating-Point Binary-to-Decimal Conversion Algorithm", 2020) for binary64
# with kappa = 2, in uint64 arithmetic: one 64 x 128-bit product per value,
# a second one only where its parity decides the last digit.  Then CPython's
# 'r' layout (format_float_short) by table-driven gathers of code points.

# values formatted at a time: each temporary is 64 KB, which malloc reuses;
# larger ones are mapped afresh and page-fault on every piece
_PIECE = 1 << 13
_GATHER = 1 << 11  # values gathered at a time: their code indices take 384 KB
_M32 = np.uint64(0xFFFFFFFF)
# the bits of 1.5, formatted in place of the values read from the table:
# its fraction field is nonzero, as _shortest needs
_FILL = 0x3FF8000000000000
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_K0 = 292  # the cache row of 10^k is k + _K0, for k in [-292, 326]

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
    """The kernel's tables, made on first use (about 15 ms), not at import:
    the cache, the units, their trailing zeros, the layout as the unit and
    the slot within it, and the reprs.

    The cache: for k in [-292, 326], phi = ceil(10^k 2^(127 - floor(log2
    10^k))), so 2^127 <= phi < 2^128, as one row of five uint64 limbs: phi
    >> 64, then the 32-bit limbs of phi >> 64 and of phi mod 2^64 (a 40-byte
    void, so that a piece's rows come in one take).  The units: every unit
    of four code points, 4 bytes each; the trailing zeros of each four-digit
    unit (4 for 0000).  The layout: the 24 slots of each repr, one row per
    (sign, digit count n, form), form 0 for d.ddde+xx and 4 + decpt for the
    positional form, decpt in [-3, 16], where the value is 0.d1...dn 10^decpt.
    The reprs: the codes of every double whose fraction field is zero, row
    ``bits >> 52`` (0.0, the powers of two 2^-1022 to 2^1023 and inf, then
    the same with a minus), and of nan in row 4096.
    """
    limbs = []
    for k in range(-_K0, 327):
        shift = 127 - _flog2pow10(k)
        num, den = 10 ** max(k, 0) << max(shift, 0), 10 ** max(-k, 0) << max(-shift, 0)
        phi = -(-num // den)
        limbs.append((phi >> 64, phi >> 96, phi >> 64 & 0xFFFFFFFF, phi >> 32 & 0xFFFFFFFF, phi & 0xFFFFFFFF))
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
    positive = ["0.0", *(repr(math.ldexp(1.0, q)) for q in range(-1022, 1024)), "inf"]
    reprs = np.array([*positive, *("-" + r for r in positive), "nan"], dtype="S24")
    zeros = sum(four % 10 ** j == 0 for j in range(1, 5))
    cache = np.array(limbs, dtype=np.uint64).view("V40").ravel()
    tables = (cache, units, zeros, layout // 4, layout % 4, reprs.view(np.uint8).reshape(-1, 24))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _mulhi(x1, x0, y1, y0):
    """The high 64 bits of the products of two uint64 arrays, from their
    32-bit limbs, the first below 2^63."""
    p00, p01, p10 = x0 * y0, x1 * y0, x0 * y1
    mid = (p00 >> 32) + p01 + (p10 & _M32)
    return x1 * y1 + (p10 >> 32) + (mid >> 32)


def _parity(w, rows, beta):
    """The parity of y = floor(w phi 2^beta / 2^128), w < 2^55, for cache
    rows ``rows`` of phi, and whether w phi 2^beta / 2^128 is an integer:
    from the low 128 bits of w phi."""
    hi, _, _, b1, b0 = rows.view(np.uint64).reshape(-1, 5).T
    low = w * (b1 << 32 | b0)
    high = w * hi + _mulhi(w >> 32, w & _M32, b1, b0)
    return high >> 64 - beta & 1, (high << beta | low >> 64 - beta) == 0


def _shortest(bits, cache):
    """The shortest decimal f 10^e that reads back as each finite double of
    ``bits`` with a nonzero fraction field (the nearest such if several, even
    f on a tie), as (f, e) with f < 10^17: its significant digits are those
    of f less its trailing zeros."""
    t = bits & np.uint64((1 << 52) - 1)
    bq = (bits >> 52 & 0x7FF).view(np.int64)
    normal = bq != 0
    c = t + (normal << np.uint64(52))
    q = bq - 1075 + ~normal  # the value is c 2^q
    k = 2 - (q * 315653 >> 20)  # kappa - floor(q log10 2)
    beta = (q + _flog2pow10(k)).view(np.uint64)  # in [6, 9]
    rows = cache.take(k + _K0)
    hi, a1, a0, b1, b0 = rows.view(np.uint64).reshape(-1, 5).T
    # scaled by 10^k, the value's rounding interval is about delta wide and
    # ends at z + frac / 2^64: the upper 128 bits of the 192-bit product
    # (2c + 1) 2^beta phi, whose fraction frac is 0 only at an integer end
    u = (c << 1 | 1) << beta
    u1, u0 = u >> 32, u & _M32
    low = _mulhi(u1, u0, b1, b0)
    frac = hi * u + low
    z = _mulhi(u1, u0, a1, a0) + (frac < low)
    delta = hi >> 63 - beta  # in [100, 1000)
    s = z // 1000
    r = z - s * 1000
    # s 1000 is in the interval if r < delta, but not at an odd c's open
    # upper end (r = 0 and an integer z: then s - 1 and r = 1000), and out
    # of it if r > delta
    zero = np.flatnonzero(r == 0)
    out = zero[(frac.take(zero) == 0) & (c.take(zero) & 1 == 1)]
    s[out] -= 1
    r[out] = 1000
    small = r > delta
    # at r == delta, the parity of the lower end's product tells whether s
    # 1000 is above it (an even c takes the end in)
    tie = np.flatnonzero(r == delta)
    if tie.size:
        ct = c.take(tie)
        parity, integer = _parity((ct << 1) - 1, rows.take(tie), beta.take(tie))
        small[tie] = (parity | integer & (ct & 1 == 0)) == 0
    # out of it, f is the value rounded to a multiple of 100: s 10 + dist //
    # 100, from z less half the width; where 100 divides dist, the parity of
    # the value's own product decides between that and one less, and an
    # integer value is a tie, to the even f
    dist = r - (delta >> 1) + 50
    m = dist * 656  # dist // 100 is m >> 16; 100 divides dist iff m mod 2^16 < 656
    f = s * 10 + (m >> 16) * small
    exact = np.flatnonzero(small & ((m & 0xFFFF) < 656))
    if exact.size:
        parity, integer = _parity(c.take(exact) << 1, rows.take(exact), beta.take(exact))
        fe = f.take(exact)
        f[exact] = fe - ((parity != (dist.take(exact) & 1)) | (fe & 1) & integer)
    return f, 2 - k


def float_codes(values):
    """The ``repr`` of each value of a float array as its ASCII code points,
    NUL-padded to 24: a uint8 array of shape ``values.shape + (24,)``, whose
    rows decode to ``map(repr, values.tolist())``.  The values whose fraction
    field is zero (zeros, powers of two, infinities) and NaNs take their
    codes from a table."""
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    tabled = (flat.view(np.uint64) << 12 == 0) | np.isnan(flat)
    pieces = max(-(-flat.size // _PIECE), 1)
    p = max(-(-flat.size // pieces), 1)  # pieces of equal length, the last padded
    bits = np.full(pieces * p, _FILL, dtype=np.uint64)
    bits[:flat.size] = flat.view(np.uint64)
    bits[:flat.size][tabled] = _FILL
    cache, unit_table, zeros, layout_units, layout_slots, reprs = _tables()
    # work buffers, and the layout as indices into a piece's units (unit-major)
    units, idx = np.empty((6, p), dtype=np.intp), np.empty((min(p, _GATHER), 24), dtype=np.intp)
    src = np.empty((8, p), dtype=unit_table.dtype)
    src[6:] = unit_table[-2:, None]  # "-.0e" and "\0\0\0\0", the same for every value
    codes = np.empty((pieces * p, 24), dtype=np.uint8)
    layout = (layout_units * (4 * p) + layout_slots).view(f"V{24 * idx.itemsize}").ravel()
    offsets = np.arange(0, 4 * p, 4)[:, None]
    for lo in range(0, flat.size, p):
        f, e = _shortest(bits[lo:lo + p], cache)
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
    if tabled.any():
        v = flat[tabled]
        codes[tabled] = reprs.take(np.where(v != v, 4096, v.view(np.int64) >> 52 & 0xFFF), axis=0)
    return codes.reshape(values.shape + (24,))


def float_cells(values):
    """``repr`` of each value of a float array as ASCII bytes, in an object
    array of the values' shape: viewing the codes as S24 drops their NUL
    padding in C."""
    return float_codes(values).view("S24")[..., 0].astype(object)

