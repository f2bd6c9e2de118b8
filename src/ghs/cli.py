"""Command-line interface.

Subcommands: density, sample, risk, simulate, report.  Every command is a
thin shell over library functions; no numerics live here.  Output is CSV
(UTF-8, header row, '.' decimal, LF endings) or JSON.  On any error the
process exits nonzero after printing a machine-readable JSON object to
stderr.  All stochastic commands require an explicit --seed.
"""

import argparse
import dataclasses
import json
import math
import operator
import sys
from array import array

import numpy as np

# log_density and sample_arrays stay importable here: perfbench/spans.py patches them
from .distribution import (  # noqa: F401
    GhsDistribution, _exp_density, _point_norms, log_density, radial_log_density, sample_arrays,
    sample_blocks,
)
from .errors import ConfigError, DimensionError, DomainError, GhsError, _check_whole
from .files import atomic_write, csv_bytes, float_cells, float_codes, write_csv_chunks
# risk_upper_bound stays importable here: perfbench/spans.py patches this name
from .risk import RiskScenario, kl_ball_prior_mass, risk_upper_bound  # noqa: F401


_CHUNK = 8192  # rows formatted at a time
_BLOCK = 1 << 16  # rows computed and written at a time: bounds the memory
_REPR_CACHE = 1 << 16  # distinct radii (or grid axis values, or prefixes) whose cells are kept


class _Cells:
    """Cells of float values made once per distinct value and kept for the
    command: ``make`` maps distinct values to an object array of their
    cells, the bytes each value's CSV text takes, separator included.
    Values are told apart by bit pattern, so -0.0 keeps its sign; a lookup
    that would pass _REPR_CACHE values restarts the cache."""

    def __init__(self, make):
        self.make, self.made = make, np.empty(0, dtype=object)
        self.bits = np.empty(0, dtype=np.uint64)  # sorted

    def lookup(self, values):
        """The cells, and the index of each of ``values`` in them."""
        distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        new = distinct[~np.isin(distinct, self.bits, assume_unique=True)]
        if self.bits.size + new.size > _REPR_CACHE:  # restart from these values
            self.bits, self.made, new = self.bits[:0], self.made[:0], distinct
        if new.size:
            at = np.searchsorted(self.bits, new)
            self.made = np.insert(self.made, at, self.make(new.view(float)))
            self.bits = np.insert(self.bits, at, new)
        return self.made, np.searchsorted(self.bits, distinct)[inverse.reshape(values.shape)]


def _csv_chunks(tables):
    """The CSV rows of an iterable of float tables, each value its repr, as
    one bytes per _CHUNK rows."""
    for table in tables:
        for lo in range(0, len(table), _CHUNK):
            yield csv_bytes(float_codes(table[lo:lo + _CHUNK].T))
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
    pole), streamed: as CSV under a header line, or as the JSON of
    ``_json_chunks``."""
    if fmt == "csv":
        write_csv_chunks(path, header, chunks)
    else:
        atomic_write(path, map(str.encode, _json_chunks(header, chunks, pole)))


def _parse_grid(spec, d):
    """(lo, step, count) of a per-axis spec lo:hi:step, applied to every axis:
    the points ``lo + j * step`` up to hi, where 1e-9 of the span's length
    past hi, but at most 1e-6 of a step, still counts as hi, so that
    rounding in the span or step does not drop it."""
    try:
        lo, hi, step = map(float, spec.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}: need lo:hi:step") from None
    span = (hi - lo) / step if step > 0 and hi >= lo else math.nan
    if not all(map(math.isfinite, (lo, hi, step, span))):
        raise ConfigError(f"bad grid spec {spec!r}: need finite lo <= hi and step > 0")
    count = math.floor(span + min(1e-9 * span, 1e-6)) + 1
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
    lines and lines starting with '#' skipped.  A block that holds a NaN
    coordinate is a DomainError naming its line."""
    flat = array("d")  # 8 bytes a coordinate, where a list of lists takes ~60
    start, skipped = 0, []  # the lines before the block, and those skipped in it

    def block():
        pts = np.frombuffer(flat).reshape(-1, d)
        nan = np.isnan(pts).any(axis=1)
        if nan.any():
            number = start + int(nan.argmax()) + 1
            for s in skipped:  # sorted: each one at or before the point moves it on
                number += s <= number
            raise DomainError(f"line {number} of the points file has a NaN coordinate")
        return pts

    for number, line in enumerate(fh, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            skipped.append(number)
            continue
        try:
            vals = [float(v) for v in line.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"line {number} of the points file is not a point: {line!r}") from None
        if len(vals) != d:
            raise DimensionError(f"point of length {len(vals)} on line {number}, expected {d}")
        flat.extend(vals)
        if len(flat) == _BLOCK * d:
            yield block()
            flat, start, skipped = array("d"), number, []
    if flat:
        yield block()


def _density_columns(dist, r):
    """The density and log density at radii ``r``."""
    ld = radial_log_density(dist.d, r, dist.sigma_theta)
    return [_exp_density(ld), ld]


def _radius_cells(dist, r):
    """The cells of radii ``r``: ``density,log_density`` and the newline."""
    dens, ld = float_cells(np.stack(_density_columns(dist, r)))
    return dens + b"," + ld + b"\n"


def _plain_chunks(dist, blocks):
    """The CSV rows ``x..., density, log_density`` of blocks of points, each
    value formatted where it is used, as ``sample`` writes its draws."""
    return _csv_chunks(np.column_stack([pts, *_density_columns(dist, _point_norms(pts))])
                       for pts in blocks)


def _grid_chunks(dist, lo, step, count, d):
    """The CSV rows ``x..., density, log_density`` of a grid of at most
    _REPR_CACHE values per axis, as one bytes per _CHUNK rows, each one join
    of cells made once: each axis value's, the leading k axes joined into
    one prefix cell per index (k the largest below d with count^k <=
    _REPR_CACHE), and the radii's from one cache, so radial_log_density
    runs, and its values are formatted, once per distinct radius."""
    axis = float_cells(lo + np.arange(count) * step) + b","
    k = next(k for k in range(d - 1, -1, -1) if count ** k <= _REPR_CACHE)
    prefix = np.array([b""], dtype=object)
    for _ in range(k):
        prefix = np.add.outer(prefix, axis).ravel()
    weights = count ** np.arange(k - 1, -1, -1)  # row-major index of j[:, :k]
    radii = _Cells(lambda r: _radius_cells(dist, r))
    for pts, j in _grid_blocks(lo, step, count, d):
        made, at = radii.lookup(_point_norms(pts))
        for a in range(0, len(pts), _CHUNK):
            jc, rc = j[a:a + _CHUNK], at[a:a + _CHUNK]
            cells = [prefix.take(jc[:, :k] @ weights), *axis.take(jc[:, k:].T), made.take(rc)]
            yield b"".join(np.column_stack(cells).ravel().tolist())


def cmd_density(args):
    dist = GhsDistribution(args.d, args.sigma_theta)
    if (args.grid is None) == (args.points_file is None):
        raise ConfigError("give exactly one of --grid or --points-file")
    header = [f"x{i + 1}" for i in range(args.d)] + ["density", "log_density"]
    if args.points_file:
        with open(args.points_file, encoding="utf-8") as fh:
            chunks = _plain_chunks(dist, _point_blocks(fh, args.d))
            return _write_table(args.out, header, chunks, args.format, pole=True)
    grid = _parse_grid(args.grid, args.d)  # lo, step, count
    if grid[2] <= _REPR_CACHE:
        chunks = _grid_chunks(dist, *grid, args.d)
    else:
        chunks = _plain_chunks(dist, (pts for pts, _ in _grid_blocks(*grid, args.d)))
    _write_table(args.out, header, chunks, args.format, pole=True)


def cmd_sample(args):
    if args.seed is None:
        raise ConfigError("--seed is required for sampling")
    dist = GhsDistribution(args.d, args.sigma_theta)
    blocks = sample_blocks(dist, args.n, args.seed, _BLOCK)
    header = ["lambda"] + [f"x{i + 1}" for i in range(args.d)]
    _write_table(args.out, header, _csv_chunks(map(np.column_stack, blocks)), args.format)


def _parse_floats(text, flag):
    """Comma-separated floats, one or more; empty entries are skipped."""
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"{flag} takes one or more values, got {text!r}")
    return values


def _parse_counts(text, flag):
    """Comma-separated whole numbers, written as integers or floats (1e3), one
    or more; empty entries are skipped."""
    return [_check_whole(v, flag, 0, ConfigError) for v in _parse_floats(text, flag)]


def cmd_risk(args):
    theta0 = None if args.theta0 is None else _parse_floats(args.theta0, "--theta0")
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
    table = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    _write_table(args.out, header, [table.encode()], args.format)


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
