"""Command-line interface.

Subcommands: density, sample, risk, simulate, report.  Every command is a
thin shell over library functions; no numerics live here.  Output is CSV
(UTF-8, header row, '.' decimal, LF endings) or JSON.  On any error the
process exits nonzero after printing a machine-readable JSON object to
stderr.  All stochastic commands require an explicit --seed.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from array import array

import numpy as np

# sample_arrays stays importable here: perfbench/spans.py patches this name
from .distribution import GhsDistribution, log_density, sample_arrays, sample_blocks  # noqa: F401
from .errors import ConfigError, DimensionError, GhsError, _check_whole
from .files import atomic_write
# risk_upper_bound stays importable here: perfbench/spans.py patches this name
from .risk import RiskScenario, kl_ball_prior_mass, risk_upper_bound  # noqa: F401


_CHUNK = 8192  # rows formatted at a time
_BLOCK = 1 << 16  # rows computed and written at a time: bounds the memory
_REPR_CACHE = 1 << 16  # distinct values a column keeps formatted across blocks


class _ColumnReprs:
    """The reprs of one float column, block by block.

    Values are told apart by bit pattern, so -0.0 keeps its sign.  A block
    in which at most half of the values are distinct formats each distinct
    value once, and the column keeps those values (sorted) with their reprs
    for the blocks that follow, up to _REPR_CACHE of them; in other blocks
    (a float repr costs about 1 us and there is little to share) each
    _CHUNK-row part is formatted in turn.
    """

    def __init__(self):
        self.bits = np.empty(0, dtype=np.uint64)
        self.reprs = np.empty(0, dtype=object)
        self.shared = True  # whether the last block was

    def cells(self, col):
        """``[repr(v) for v in part]`` for each _CHUNK-row part of ``col``."""
        shared = self._shared(col.view(np.uint64))
        for lo in range(0, col.size, _CHUNK):
            if shared is None:
                yield list(map(repr, col[lo:lo + _CHUNK].tolist()))
            else:
                reprs, index = shared
                yield reprs[index[lo:lo + _CHUNK]].tolist()

    def _shared(self, bits):
        """The reprs of the distinct values of ``bits`` and the index of each
        value's repr among them, or None when more than half are distinct."""
        # when the last block was shared, argsort, whose order also gives each
        # value's index; else np.sort, three times as fast (np.unique hashes,
        # and is slower than both)
        order = np.argsort(bits) if self.shared else None
        ordered = np.sort(bits) if order is None else bits[order]
        first = np.ones(bits.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        self.shared = 2 * distinct.size <= bits.size
        if not self.shared:
            return None
        if order is None:
            order = np.argsort(bits)
        index = np.empty(bits.size, dtype=np.int32)
        index[order] = np.cumsum(first, dtype=np.int32) - 1
        pos = np.searchsorted(self.bits, distinct)
        known = np.zeros(distinct.size, dtype=bool)
        if self.bits.size:
            known = self.bits[np.minimum(pos, self.bits.size - 1)] == distinct
        reprs = np.empty(distinct.size, dtype=object)
        reprs[known] = self.reprs[pos[known]]
        new = ~known
        reprs[new] = [repr(v) for v in distinct[new].view(float).tolist()]
        if self.bits.size + np.count_nonzero(new) <= _REPR_CACHE:
            self.bits = np.insert(self.bits, pos[new], distinct[new])
            self.reprs = np.insert(self.reprs, pos[new], reprs[new])
        else:
            self.bits, self.reprs = distinct, reprs
        return reprs, index


def _cell_chunks(blocks):
    """For each _CHUNK rows of a float array or of an iterable of such blocks
    (all with the same columns): one list of cells per column."""
    if isinstance(blocks, np.ndarray):
        blocks = [blocks]
    columns = None
    for block in blocks:
        if columns is None:
            columns = [_ColumnReprs() for _ in range(block.shape[1])]
        yield from zip(*(c.cells(col) for c, col in zip(columns, block.T)))
        del block  # free it before the next block is made


def _csv_chunks(blocks):
    """CSV lines of a float array or of an iterable of blocks, _CHUNK rows at a time."""
    for cells in _cell_chunks(blocks):
        # one join of the cells interleaved with their separators is
        # faster than a join per row
        step = 2 * len(cells)
        text = ([","] * (step - 1) + ["\n"]) * len(cells[0])
        for k, col in enumerate(cells):
            text[2 * k::step] = col
        yield "".join(text)


def _json_chunks(header, cell_chunks):
    """The text of ``json.dumps(docs, indent=1, sort_keys=True) + "\n"``,
    one chunk of rows at a time, for rows of cells that are already reprs
    (which is how json writes floats and ints).  Non-finite cells are null,
    and a row that holds +inf gets "pole": true."""
    order = sorted(range(len(header)), key=header.__getitem__)

    def template(keys):
        lines = ('  "pole": true' if k == "pole" else f'  "{k}": %s' for k in sorted(keys))
        return " {\n" + ",\n".join(lines) + "\n }"

    plain, pole = template(header), template(header + ["pole"])
    null = {"inf": "null", "-inf": "null", "nan": "null"}
    sep = "[\n"
    for cells in cell_chunks:
        docs = [
            (pole if "inf" in row else plain) % tuple(null.get(row[i], row[i]) for i in order)
            for row in cells
        ]
        if docs:
            yield sep + ",\n".join(docs)
            sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _write_table(path, header, rows, fmt):
    """Write a float array, an iterable of float blocks, or a list of rows of
    Python numbers as CSV or JSON, streamed: each CSV value is its repr
    ('inf' at the pole); JSON as ``_json_chunks``."""
    numeric = not isinstance(rows, list)
    if fmt == "csv":
        if numeric:
            lines = _csv_chunks(rows)
        else:
            lines = (",".join(map(repr, row)) + "\n" for row in rows)
        atomic_write(path, itertools.chain([",".join(header) + "\n"], lines))
        return
    if numeric:
        cell_chunks = (zip(*cells) for cells in _cell_chunks(rows))
    else:
        cell_chunks = [[tuple(map(repr, row)) for row in rows]]
    atomic_write(path, _json_chunks(header, cell_chunks))


def _parse_grid(spec, d):
    """(lo, step, count) of a per-axis spec lo:hi:step, applied to every axis."""
    try:
        lo, hi, step = map(float, spec.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}: need lo:hi:step") from None
    span = (hi - lo) / step if step > 0 and hi >= lo else math.nan
    if not all(map(math.isfinite, (lo, hi, step, span))):
        raise ConfigError(f"bad grid spec {spec!r}: need finite lo <= hi and step > 0")
    count = int(round(span)) + 1
    if d * math.log2(count) >= 62:  # row indices, plus one run, fit in int64
        raise ConfigError(f"grid spec {spec!r} gives {count}^{d} points, too many")
    return lo, step, count


def _grid_blocks(lo, step, count, d):
    """The grid's points in row-major order, _BLOCK rows at a time.

    Coordinate k of row i is ``lo + j * step`` for the axis index
    ``j = (i // run) % count``, ``run = count^(d-1-k)``: a block holds
    column k as runs of equal values, built by np.repeat without a division
    per row.
    """
    rows = count ** d
    for start in range(0, rows, _BLOCK):
        stop = min(start + _BLOCK, rows)
        pts = np.empty((stop - start, d))
        for k in range(d):
            run = count ** (d - 1 - k)
            first, last = start // run, (stop - 1) // run
            ends = np.minimum(np.arange(first + 1, last + 2) * run, stop)
            lengths = np.diff(ends, prepend=start)
            pts[:, k] = np.repeat(lo + (np.arange(first, last + 1) % count) * step, lengths)
        yield pts
        del pts  # free it before the next block is made


def _point_blocks(fh, d):
    """The points of an open text file, _BLOCK at a time: one per line, blank
    lines and lines starting with '#' skipped."""
    flat = array("d")  # 8 bytes a coordinate, where a list of lists takes ~60
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vals = [float(v) for v in line.replace(",", " ").split()]
        if len(vals) != d:
            raise DimensionError(f"point of length {len(vals)}, expected {d}")
        flat.extend(vals)
        if len(flat) == _BLOCK * d:
            yield np.frombuffer(flat).reshape(-1, d)
            flat = array("d")
    if flat:
        yield np.frombuffer(flat).reshape(-1, d)


def _density_table(dist, pts):
    """Rows ``x..., density, log_density`` for a block of points."""
    ld = log_density(dist, pts)
    dens = np.full_like(ld, math.inf)  # e^700 and above print as inf
    np.exp(ld, out=dens, where=ld < 700)
    return np.column_stack([pts, dens, ld])


def cmd_density(args):
    dist = GhsDistribution(args.d, args.sigma_theta)
    if (args.grid is None) == (args.points_file is None):
        raise ConfigError("give exactly one of --grid or --points-file")
    header = [f"x{i + 1}" for i in range(args.d)] + ["density", "log_density"]
    # map holds no block once its table is made, so only one table is alive
    table = functools.partial(_density_table, dist)
    if args.grid:
        blocks = _grid_blocks(*_parse_grid(args.grid, args.d), args.d)
        _write_table(args.out, header, map(table, blocks), args.format)
        return
    with open(args.points_file, encoding="utf-8") as fh:
        _write_table(args.out, header, map(table, _point_blocks(fh, args.d)), args.format)


def cmd_sample(args):
    if args.seed is None:
        raise ConfigError("--seed is required for sampling")
    dist = GhsDistribution(args.d, args.sigma_theta)
    blocks = sample_blocks(dist, args.n, args.seed, _BLOCK)
    header = ["lambda"] + [f"x{i + 1}" for i in range(args.d)]
    _write_table(args.out, header, map(np.column_stack, blocks), args.format)


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_counts(text, flag):
    """Comma-separated whole numbers, written as integers or floats (1e3)."""
    return [_check_whole(v, flag, 0, ConfigError) for v in _parse_floats(text)]


def cmd_risk(args):
    theta0 = _parse_floats(args.theta0) if args.theta0 else None
    d_list = _parse_counts(args.d_list, "--d-list")
    if theta0 is not None and d_list != [len(theta0)]:
        raise ConfigError("--theta0 requires --d-list to be exactly its dimension")
    n_grid = _parse_counts(args.n_grid, "--n-grid")
    header = ["d", "n", "mass", "bound", "normalized_bound"]
    rows = []
    for d in d_list:
        scenario = RiskScenario(d, args.sigma, tuple(theta0 or []), tuple(n_grid))
        half_coef = d if theta0 else 1.0  # d log(n)/2 off the origin, log(n)/2 at it
        for n in scenario.n_grid:
            mass = kl_ball_prior_mass(scenario, n)
            bound = (1.0 - math.log(mass)) / n  # risk_upper_bound, from this mass
            rows.append([d, n, mass, bound, n * bound - half_coef * math.log(n) / 2.0])
    _write_table(args.out, header, rows, args.format)


def cmd_simulate(args):
    from . import study as study_mod  # the Gibbs sampler loads scipy.linalg

    config = study_mod.StudyConfig.from_json(args.config)
    overrides = {"seed": args.seed, "threads": args.threads}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    records, failures = study_mod.run_study(config, args.out_dir)
    print(f"completed {len(records)} replications, {len(failures)} failed")
    if failures:
        doc = {"error": "PartialFailure", "message": f"{len(failures)} replications failed", "failures": failures}
        print(json.dumps(doc), file=sys.stderr)
        sys.exit(3)


def cmd_report(args):
    from . import study as study_mod

    records = study_mod.load_reports(args.in_dir)
    if not records:
        raise ConfigError(f"no replication reports under {args.in_dir}")
    study_mod.write_aggregates(records, args.out_dir or args.in_dir)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ghs",
        description="Grouped-horseshoe density, sampling, risk bounds and "
        "additive-model selection studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("density", help="evaluate the density on a grid or point list")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma-theta", type=float, default=1.0)
    p.add_argument("--grid", help="per-axis spec lo:hi:step, applied to every axis")
    p.add_argument("--points-file", help="file with one point per line")
    output(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("sample", help="draw mixture samples (lambda + vector)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=float, required=True, help="number of draws, a whole number (1e5)")
    p.add_argument("--sigma-theta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    output(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("risk", help="KL-ball masses and risk bounds over an n grid")
    p.add_argument("--d-list", required=True, help="comma-separated dimensions")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--theta0", help="comma-separated true mean (off-origin case)")
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    output(p)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("simulate", help="run a selection simulation study")
    p.add_argument("--config", required=True, help="JSON study configuration")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="rebuild aggregate tables from run output")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (GhsError, OSError, ValueError) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(doc), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
