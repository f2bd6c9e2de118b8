"""Command-line interface.

Subcommands: density, sample, risk, simulate, report.  Every command is a
thin shell over library functions; no numerics live here.  Output is CSV
(UTF-8, header row, '.' decimal, LF endings) or JSON.  On any error the
process exits nonzero after printing a machine-readable JSON object to
stderr.  All stochastic commands require an explicit --seed.
"""

import argparse
import dataclasses
import itertools
import json
import math
import sys
from array import array

import numpy as np

# log_density and sample_arrays stay importable here: perfbench/spans.py patches them
from .distribution import (  # noqa: F401
    GhsDistribution, _point_norms, log_density, radial_log_density, sample_arrays, sample_blocks
)
from .errors import ConfigError, DimensionError, GhsError, _check_whole
from .files import _csv_chunks, atomic_write, float_reprs
# risk_upper_bound stays importable here: perfbench/spans.py patches this name
from .risk import RiskScenario, kl_ball_prior_mass, risk_upper_bound  # noqa: F401


_CHUNK = 8192  # rows formatted at a time
_BLOCK = 1 << 16  # rows computed and written at a time: bounds the memory
_REPR_CACHE = 1 << 16  # distinct values a _Cells cache keeps formatted across calls


def _reprs(values):
    """``repr(v)`` of each float of an array, as an object array."""
    return np.array(float_reprs(values), dtype=object)


class _Cells:
    """Cells of float values made once per distinct value and kept for the
    command: ``make`` maps distinct values to a list of object arrays, one
    per cell column.  Values are told apart by bit pattern, so -0.0 keeps its
    sign; a lookup that would pass _REPR_CACHE values restarts the cache."""

    def __init__(self, make):
        self.make, self.cols = make, None
        self.bits = np.empty(0, dtype=np.uint64)  # sorted

    def lookup(self, values):
        """The cell columns, and the row of each of ``values`` in them."""
        distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        new = distinct[~np.isin(distinct, self.bits, assume_unique=True)]
        if self.bits.size + new.size > _REPR_CACHE:  # restart from these values
            self.bits, self.cols, new = self.bits[:0], None, distinct
        if new.size:
            cols, at = self.make(new.view(float)), np.searchsorted(self.bits, new)
            if self.bits.size:
                cols = [np.insert(c, at, n) for c, n in zip(self.cols, cols)]
            self.bits, self.cols = np.insert(self.bits, at, new), cols
        return self.cols, np.searchsorted(self.bits, distinct)[inverse.reshape(values.shape)]

    def cells(self, table):
        """One list of cells per column of a float table, for a one-column cache."""
        (cells,), at = self.lookup(table)
        return cells[at.T].tolist()


def _repr_chunks(tables):
    """For each _CHUNK rows of an iterable of float tables (all with the same
    columns): one list of repr cells per column."""
    for table in tables:
        for lo in range(0, len(table), _CHUNK):
            yield float_reprs(table[lo:lo + _CHUNK].T)
        del table  # free it before the next table is made


def _json_chunks(header, cell_chunks):
    """The text of ``json.dumps(docs, indent=1, sort_keys=True) + "\n"``,
    one chunk of rows at a time, for cells that are already reprs (which is
    how json writes floats and ints).  Non-finite cells are null, and a row
    that holds +inf gets "pole": true."""
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
            for row in zip(*cells)
        ]
        if docs:
            yield sep + ",\n".join(docs)
            sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _write_table(path, header, cell_chunks, fmt):
    """Write chunks of cells, one list of reprs per column as ``_repr_chunks``
    yields them, as CSV or JSON, streamed: each CSV value is its repr ('inf'
    at the pole); JSON as ``_json_chunks``."""
    if fmt == "csv":
        atomic_write(path, itertools.chain([",".join(header) + "\n"], _csv_chunks(cell_chunks)))
    else:
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
    if d * math.log2(count) >= 62:  # row indices fit in int64
        raise ConfigError(f"grid spec {spec!r} gives {count}^{d} points, too many")
    return lo, step, count


def _grid_blocks(lo, step, count, d):
    """The grid's points in row-major order, _BLOCK rows at a time, each block
    with its (rows, d) axis indices j: the coordinates are ``lo + j * step``."""
    rows = count ** d
    for start in range(0, rows, _BLOCK):
        j = np.arange(start, min(start + _BLOCK, rows))
        # unravel_index takes at most 64 axes; past 61, count^d < 2^62 means count 1
        j = np.column_stack(np.unravel_index(j, (count,) * d) if count > 1 else [j] * d)
        yield lo + j * step, j


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


def _axis_cells(lo, step, count):
    """The coordinate cells of grid rows from their axis indices j: each axis value
    ``lo + j * step`` formatted once, or, past _REPR_CACHE of them, each coordinate."""
    if count > _REPR_CACHE:
        return lambda j: float_reprs(lo + j.T * step)
    axis = _reprs(lo + np.arange(count) * step)
    return lambda j: axis[j.T].tolist()


def _density_columns(dist, r):
    """The density (inf from e^700 up) and log density at radii ``r``."""
    ld = radial_log_density(dist.d, r, dist.sigma_theta)
    return [np.exp(ld, out=np.full_like(ld, math.inf), where=ld < 700), ld]


def _density_chunks(dist, blocks, coordinate_cells):
    """For each _CHUNK rows ``x..., density, log_density``, one list of cells
    per column, from blocks of (points, keys); ``coordinate_cells`` makes a
    chunk's coordinate columns from its keys.  Density cells come from one
    cache keyed by the radius, so radial_log_density runs, and its values are
    formatted, once per distinct radius of the command.  A block of mostly
    distinct radii (scattered points) is formatted value by value instead."""
    radii = _Cells(lambda r: list(map(_reprs, _density_columns(dist, r))))
    for pts, keys in blocks:
        r = _point_norms(pts)
        if 2 * np.unique(r).size > r.size:
            yield from _repr_chunks([np.column_stack([pts, *_density_columns(dist, r)])])
            continue
        (dens, ld), at = radii.lookup(r)
        for lo in range(0, len(pts), _CHUNK):
            i = at[lo:lo + _CHUNK]
            yield coordinate_cells(keys[lo:lo + _CHUNK]) + [dens[i].tolist(), ld[i].tolist()]


def cmd_density(args):
    dist = GhsDistribution(args.d, args.sigma_theta)
    if (args.grid is None) == (args.points_file is None):
        raise ConfigError("give exactly one of --grid or --points-file")
    header = [f"x{i + 1}" for i in range(args.d)] + ["density", "log_density"]
    if args.grid:  # coordinate cells keyed by axis index
        grid = _parse_grid(args.grid, args.d)
        blocks, cells = _grid_blocks(*grid, args.d), _axis_cells(*grid)
        return _write_table(args.out, header, _density_chunks(dist, blocks, cells), args.format)
    with open(args.points_file, encoding="utf-8") as fh:  # coordinate cells keyed by their bits
        blocks = ((pts, pts) for pts in _point_blocks(fh, args.d))
        cells = _Cells(lambda values: [_reprs(values)]).cells
        _write_table(args.out, header, _density_chunks(dist, blocks, cells), args.format)


def cmd_sample(args):
    if args.seed is None:
        raise ConfigError("--seed is required for sampling")
    dist = GhsDistribution(args.d, args.sigma_theta)
    blocks = sample_blocks(dist, args.n, args.seed, _BLOCK)
    header = ["lambda"] + [f"x{i + 1}" for i in range(args.d)]
    _write_table(args.out, header, _repr_chunks(map(np.column_stack, blocks)), args.format)


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_counts(text, flag):
    """Comma-separated whole numbers, written as integers or floats (1e3), one
    or more; empty entries are skipped."""
    counts = [_check_whole(v, flag, 0, ConfigError) for v in _parse_floats(text)]
    if not counts:
        raise ConfigError(f"{flag} takes one or more values, got {text!r}")
    return counts


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
    _write_table(args.out, header, [[list(map(repr, col)) for col in zip(*rows)]], args.format)


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
