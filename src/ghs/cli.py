"""Command-line interface.

Subcommands: density, sample, risk, simulate, report.  Every command is a
thin shell over library functions; no numerics live here.  Output is CSV
(UTF-8, header row, '.' decimal, LF endings) or JSON.  On any error the
process exits nonzero after printing a machine-readable JSON object to
stderr.  All stochastic commands require an explicit --seed.
"""

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import study as study_mod
from .distribution import GhsDistribution, log_density, sample_arrays
from .errors import ConfigError, DimensionError, GhsError
# risk_upper_bound stays importable here: perfbench/spans.py patches this name
from .risk import RiskScenario, kl_ball_prior_mass, risk_upper_bound  # noqa: F401


def _reprs(col):
    """repr of every value of a float column, computed once per distinct value
    (told apart by bit pattern, so -0.0 keeps its sign)."""
    uniq, inv = np.unique(col.view(np.uint64), return_inverse=True)
    return np.array([repr(v) for v in uniq.view(float).tolist()], dtype=object)[inv].tolist()


def _csv_chunks(table):
    """CSV lines of a 2-D float array, about 8,192 rows at a time."""
    for part in np.array_split(table, len(table) // 8192 + 1):
        yield "".join(",".join(row) + "\n" for row in zip(*map(_reprs, part.T)))


def _write_table(path, header, rows, fmt):
    """Write a float array or rows of Python numbers as CSV, streamed, each value
    its repr ('inf' at the pole), or as JSON (infinities null, "pole": true)."""
    if fmt == "csv":
        if isinstance(rows, np.ndarray):
            lines = _csv_chunks(rows)
        else:
            lines = (",".join(map(repr, row)) + "\n" for row in rows)
        study_mod._atomic_write(path, itertools.chain([",".join(header) + "\n"], lines))
        return
    docs = []
    for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
        docs.append({k: v if math.isfinite(v) else None for k, v in zip(header, row)})
        if math.inf in row:
            docs[-1]["pole"] = True
    study_mod._atomic_write(path, [json.dumps(docs, indent=1, sort_keys=True), "\n"])


def _parse_grid(spec, d):
    lo, hi, step = (float(p) for p in spec.split(":"))
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad grid spec {spec!r}")
    count = int(round((hi - lo) / step)) + 1
    axis = [lo + i * step for i in range(count)]
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def _read_points(path, d):
    pts = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = [float(v) for v in line.replace(",", " ").split()]
            if len(vals) != d:
                raise DimensionError(f"point of length {len(vals)}, expected {d}")
            pts.append(vals)
    return np.asarray(pts, dtype=float).reshape(-1, d)


def cmd_density(args):
    dist = GhsDistribution(args.d, args.sigma_theta)
    if (args.grid is None) == (args.points_file is None):
        raise ConfigError("give exactly one of --grid or --points-file")
    pts = (
        _parse_grid(args.grid, args.d)
        if args.grid
        else _read_points(args.points_file, args.d)
    )
    header = [f"x{i + 1}" for i in range(args.d)] + ["density", "log_density"]
    ld = log_density(dist, pts)
    dens = np.full_like(ld, math.inf)  # e^700 and above print as inf
    np.exp(ld, out=dens, where=ld < 700)
    _write_table(args.out, header, np.column_stack([pts, dens, ld]), args.format)


def cmd_sample(args):
    if args.seed is None:
        raise ConfigError("--seed is required for sampling")
    dist = GhsDistribution(args.d, args.sigma_theta)
    lam, xs = sample_arrays(dist, args.n, args.seed)
    header = ["lambda"] + [f"x{i + 1}" for i in range(args.d)]
    _write_table(args.out, header, np.column_stack([lam, xs]), args.format)


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_risk(args):
    theta0 = _parse_floats(args.theta0) if args.theta0 else None
    d_list = [int(v) for v in _parse_floats(args.d_list)]
    if theta0 is not None and d_list != [len(theta0)]:
        raise ConfigError("--theta0 requires --d-list to be exactly its dimension")
    n_grid = [int(v) for v in _parse_floats(args.n_grid)]
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
    config = study_mod.StudyConfig.from_json(args.config)
    overrides = {"seed": args.seed, "threads": args.threads}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        config = study_mod.StudyConfig.from_dict({**config.to_dict(), **overrides})
    records, failures = study_mod.run_study(config, args.out_dir)
    print(f"completed {len(records)} replications, {len(failures)} failed")
    if failures:
        doc = {"error": "PartialFailure", "message": f"{len(failures)} replications failed", "failures": failures}
        print(json.dumps(doc), file=sys.stderr)
        sys.exit(3)


def cmd_report(args):
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
    p.add_argument("--n", type=int, required=True)
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
