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
# kl_ball_prior_mass and risk_upper_bound stay importable here: perfbench/spans.py patches them
from .risk import RiskScenario, _masses_and_bounds, kl_ball_prior_mass, risk_upper_bound  # noqa: F401


_CHUNK = 8192  # rows formatted at a time, and the rows of each draw block of sample
_BLOCK = 1 << 16  # density's rows computed and written at a time: bounds the memory
_REPR_CACHE = 1 << 16  # grid axis values, and prefixes, whose cells are kept
_TEMPLATE_BYTES = 1 << 23  # most bytes the grid writer's templates hold: one class takes < 5 MB
_RADIUS_BYTES = 50  # most bytes of a radius's cells: two reprs of 24, a comma, a newline


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
    """The grid's points in row-major order, _BLOCK rows at a time: the
    coordinates are ``lo + j * step``, j the row's axis indices."""
    rows = count ** d
    for start in range(0, rows, _BLOCK):
        i = np.arange(start, min(start + _BLOCK, rows))
        yield lo + np.column_stack([i // count ** k % count for k in range(d - 1, -1, -1)]) * step


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


def _squares_normal(lo, step, count, d):
    """Whether every nonzero axis value of the grid squares to a normal float
    and the largest sum of d squares is finite: then no row of it is one
    that _point_norms recomputes by hypot."""
    a = lo + np.arange(count) * step
    with np.errstate(over="ignore", under="ignore"):
        sq = a * a
    top = 0.0
    for _ in range(d):  # summed as _point_norms sums them
        top += float(sq.max())
    return math.isfinite(top) and bool(np.all((sq >= np.finfo(float).tiny) | (a == 0)))


def _templates(dist, sums, sq, marked):
    """The template of each prefix sum p: for each last-axis index j, a NUL,
    the axis cell and the cells of the radius sqrt(p + sq[j]), each distinct
    radius evaluated and formatted once."""
    r, at = np.unique(np.sqrt(np.add.outer(sums, sq)), return_inverse=True)
    cells = np.empty((len(sums), 2 * len(sq)), dtype=object)
    cells[:, 0::2], cells[:, 1::2] = marked, _radius_cells(dist, r).take(at.reshape(-1, len(sq)))
    return [b"".join(row) for row in cells.tolist()]


def _grid_chunks(dist, lo, step, count, d):
    """The CSV rows ``x..., density, log_density`` of a grid of at most
    _REPR_CACHE values per axis whose squares are normal, as one bytes per
    about _CHUNK rows, by runs of the last axis.

    A run's rows share their prefix (the first d - 1 coordinates), so a
    row's squared radius is p + sq[j], p the left-to-right sum of the
    prefix's squares as _point_norms sums them.  The runs of one p (a class)
    share a template; a run is its template with the prefix's cell in place
    of each NUL.  Prefixes come _REPR_CACHE runs at a time, their classes
    made in one batch if they fit in _TEMPLATE_BYTES, else a few runs at a
    time; a batch that would pass that bound restarts the templates.
    """
    a = lo + np.arange(count) * step
    sq, axis = a * a, float_cells(a) + b","
    marked = np.array([b"\0" + cell for cell in axis.tolist()], dtype=object)  # NumPy drops a NUL
    room = max(1, _TEMPLATE_BYTES // (sum(map(len, marked.tolist())) + _RADIUS_BYTES * count))
    runs, per = count ** (d - 1), max(1, _CHUNK // count)
    templates = {}  # prefix sum -> template
    for start in range(0, runs, _REPR_CACHE):
        i = np.arange(start, min(start + _REPR_CACHE, runs))
        prefix, sums = np.full(i.size, b"", dtype=object), np.zeros(i.size)
        for k in range(d - 2, -1, -1):  # the prefix's axes, the first one first
            j = i // count ** k % count
            prefix, sums = prefix + axis.take(j), sums + sq.take(j)
        prefix, sums = prefix.tolist(), sums.tolist()
        batch = len(sums) if len(set(sums)) <= room else room
        for b in range(0, len(sums), batch):
            part, cells = sums[b:b + batch], prefix[b:b + batch]
            keys = dict.fromkeys(part)  # the batch's classes
            new = [p for p in keys if p not in templates]
            if len(templates) + len(new) > room:
                templates, new = {}, list(keys)
            if new:
                templates.update(zip(new, _templates(dist, new, sq, marked)))
            for c in range(0, len(part), per):
                yield b"".join([templates[p].replace(b"\0", cell)
                                for p, cell in zip(part[c:c + per], cells[c:c + per])])


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
    if grid[2] <= _REPR_CACHE and _squares_normal(*grid, args.d):
        chunks = _grid_chunks(dist, *grid, args.d)
    else:
        chunks = _plain_chunks(dist, _grid_blocks(*grid, args.d))
    _write_table(args.out, header, chunks, args.format, pole=True)


def cmd_sample(args):
    if args.seed is None:
        raise ConfigError("--seed is required for sampling")
    dist = GhsDistribution(args.d, args.sigma_theta)
    blocks = sample_blocks(dist, args.n, args.seed, _CHUNK)
    header = ["lambda"] + [f"x{i + 1}" for i in range(args.d)]
    chunks = (csv_bytes([float_codes(lam), *float_codes(x).swapaxes(0, 1)]) for lam, x in blocks)
    _write_table(args.out, header, chunks, args.format)


def _parse_floats(text, flag):
    """Comma-separated floats, one or more; empty entries are skipped."""
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"{flag} takes one or more values, got {text!r}")
    return values


def _parse_counts(text, flag, least):
    """Comma-separated whole numbers >= ``least``, written as integers or
    floats (1e3), one or more; empty entries are skipped."""
    return [_check_whole(v, flag, least, ConfigError) for v in _parse_floats(text, flag)]


def cmd_risk(args):
    theta0 = None if args.theta0 is None else _parse_floats(args.theta0, "--theta0")
    d_list = _parse_counts(args.d_list, "--d-list", 1)
    if theta0 is not None and d_list != [len(theta0)]:
        raise ConfigError("--theta0 requires --d-list to be exactly its dimension")
    n_grid = _parse_counts(args.n_grid, "--n-grid", 2)
    header = ["d", "n", "mass", "bound", "normalized_bound"]
    rows = []
    for d in d_list:
        scenario = RiskScenario(d, args.sigma, tuple(theta0 or []), tuple(n_grid))
        rows.extend([d, *row] for row in zip(n_grid, *_masses_and_bounds(scenario, n_grid)))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in reversed(range(1, len(argv))):  # argparse takes "-1,1" after --theta0 for an option
        if argv[i - 1] == "--theta0" and argv[i][:1] == "-" and argv[i][1:2] in set("0123456789."):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (GhsError, OSError, ValueError) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(doc), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
