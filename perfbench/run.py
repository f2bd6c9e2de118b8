#!/usr/bin/env python3
"""Benchmark of the ghs toolkit: three workloads, measured end to end or traced.

    python3 perfbench/run.py --workload posterior --seed 1 --seconds 10 --trace 0

Workloads (perfbench/README.md says why each exists):

* ``posterior``: the ROADMAP (d, tau, ||y||) grid through the closed-form
  posterior and the side model, then a 20,000-observation batch at tau = 1.
* ``cli-distribution``: ``ghs density``, ``sample`` and ``risk`` called in
  process through ``ghs.cli.main``.
* ``gibbs-study``: ``run_study`` at the paper spec (q = 151), one process.

The timed window repeats whole passes of the workload until ``--seconds``
have elapsed, with at least one pass.  Times are measured against the CPU
speed probe of ``probe.py``.  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics.  With ``--trace 1`` the run makes one
untraced pass and one traced pass and the last line holds the per-layer
metrics.  Outputs are checked after the timed window.  The full result and
the spans go to ``.perfbench/`` at the root of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(WORK, "results")
sys.path.insert(0, SRC)
# One CPU does all the work, so the speed probe on that CPU sees all of it;
# this must be set before numpy loads its BLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ghs  # noqa: E402
from ghs import cli, posterior, study  # noqa: E402
from ghs.distribution import (  # noqa: E402
    GhsDistribution,
    density_quadrature_oracle,
    sample_arrays,
)
from ghs.rng import make_rng  # noqa: E402

if os.path.dirname(os.path.abspath(ghs.__file__)) != os.path.join(SRC, "ghs"):
    sys.exit(f"ghs was imported from {ghs.__file__}, not from {SRC}")

from probe import NOMINAL_REFERENCE_S, SpeedProbe  # noqa: E402
from spans import Tracer  # noqa: E402

REL_TOL = 1e-8  # oracle agreement required of every checked value
_NO_SPAN = nullcontext()


def _no_span(name, op_id=None):
    return _NO_SPAN


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY the harness smoke test."""

    grid_d: tuple = (1, 3, 20)
    grid_tau: tuple = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
    grid_norm: tuple = (0.1, 3.0, 30.0, 300.0)
    batch: int = 20_000
    batch_checks: int = 200
    density_d: int = 3
    density_grid: str = "-3:3:0.1"
    density_rows: int = 61**3
    density_checks: int = 20
    sample_d: int = 3
    sample_n: int = 100_000
    risk: tuple = (("--d-list", "1,2,3", "--n-grid", "1e3,1e4,1e5,1e6"),
                   ("--d-list", "3", "--theta0", "1,1,1", "--n-grid", "1e4,1e6"))
    risk_rows: tuple = (12, 2)
    study: dict = field(default_factory=lambda: dict(
        n=(2000,), sigma_eps=(0.25, 1.0), replications=2, d_lin=10, d_nl=20,
        basis_size=6, iters=600, burn=100))
    setup_reps: int = 3


FULL = Sizes()
TINY = Sizes(
    grid_d=(1, 3), grid_tau=(0.5, 1.0, 2.0), grid_norm=(0.1, 3.0),
    batch=300, batch_checks=5,
    density_d=2, density_grid="-1:1:0.5", density_rows=25, density_checks=4,
    sample_n=200,
    risk=(("--d-list", "1,2", "--n-grid", "1e3,1e4"),
          ("--d-list", "2", "--theta0", "1,1", "--n-grid", "1e4")),
    risk_rows=(4, 1),
    study=dict(n=(200,), sigma_eps=(0.5,), replications=1, d_lin=2, d_nl=2,
               basis_size=4, iters=30, burn=10),
    setup_reps=1,
)


@dataclass
class Pass:
    """One pass of a workload: its wall time, outcomes and phase times."""

    wall: float = 0.0
    ref: float = 0.0
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    phases: Counter = field(default_factory=Counter)
    data: dict = field(default_factory=dict)


def _agrees(value, oracle):
    """Scalar or vector ``value`` within REL_TOL of ``oracle``."""
    err = float(np.linalg.norm(np.subtract(value, oracle)))
    return err <= REL_TOL * max(1.0, float(np.linalg.norm(oracle)))


def tree_digest(path):
    """sha256 over every file under ``path``: relative name and bytes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def file_digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(path)
        for name in files
    )


# ---------------------------------------------------------------------------
# posterior: few expensive grid calls, many cheap batch calls
# ---------------------------------------------------------------------------


class PosteriorWorkload:
    name = "posterior"

    def __init__(self, seed, sizes, work):
        self.seed, self.sizes = seed, sizes

    def prepare(self):
        s = self.sizes
        rng = make_rng(self.seed)
        cells = []
        for d in s.grid_d:
            for tau in s.grid_tau:
                for norm in s.grid_norm:
                    u = rng.standard_normal(d)
                    cells.append((d, tau, norm * u / np.linalg.norm(u)))
        _, theta = sample_arrays(GhsDistribution(3), s.batch, self.seed)
        self.cells = cells
        self.batch = theta + rng.standard_normal(theta.shape)

    def run_pass(self, tracer, k):
        span = tracer.span if tracer else _no_span
        p = Pass()
        grid = []
        batch = np.full_like(self.batch, np.nan)
        returned = np.zeros(len(self.batch), dtype=bool)
        lat = np.empty(len(self.batch))
        perf = time.perf_counter
        t_pass = perf()
        with span("bench.pass"):
            op = 0
            for d, tau, y in self.cells:
                model = posterior.PosteriorModel(d, tau)
                side = posterior.SideModel(d, 1.0, tau)
                regime = "tau_eq1" if tau == 1.0 else ("tau_lt1" if tau < 1.0 else "tau_gt1")
                for fname, fn, arg in (
                    ("marginal_log_density", posterior.marginal_log_density, model),
                    ("posterior_mean", posterior.posterior_mean, model),
                    ("side_model_shrinkage", posterior.side_model_shrinkage, side),
                ):
                    value, error = None, None
                    t0 = perf()
                    with span("bench.op", op):
                        try:
                            value = fn(arg, y)
                        except Exception as exc:  # noqa: BLE001 - a failed op is data
                            error = type(exc).__name__
                    p.phases["grid." + regime] += perf() - t0
                    grid.append((fname, d, tau, y, value, error))
                    op += 1
            t_grid = perf()
            p.phases["grid"] = t_grid - t_pass
            model = posterior.PosteriorModel(3, 1.0)
            batch_failed = Counter()
            for i, y in enumerate(self.batch):
                t0 = perf()
                with span("bench.op", op + i):
                    try:
                        batch[i] = posterior.posterior_mean(model, y)
                        returned[i] = True
                    except Exception as exc:  # noqa: BLE001 - a failed op is data
                        batch_failed[type(exc).__name__] += 1
                lat[i] = perf() - t0
            p.phases["batch"] = perf() - t_grid
        p.wall = perf() - t_pass
        p.attempted = len(grid) + len(self.batch)
        p.failed.update(e for *_, e in grid if e is not None)
        p.failed.update(batch_failed)
        p.data = {"grid": grid, "batch": batch, "returned": returned, "latency": lat}
        return p

    def check(self, passes):
        """Oracle checks of the first pass; later passes must repeat it."""
        misses, skipped = 0, 0
        first = passes[0].data
        for fname, d, tau, y, value, error in first["grid"]:
            if error is not None:
                continue
            model = posterior.PosteriorModel(d, tau)
            try:
                if fname == "marginal_log_density":
                    ok = _agrees(value, posterior.marginal_log_density_quad(model, y))
                elif fname == "posterior_mean":
                    ok = _agrees(value, posterior.posterior_mean_mixture_oracle(model, y))
                else:
                    side = posterior.SideModel(d, 1.0, tau)
                    other = posterior.side_model_shrinkage(side, y, method="lambda")
                    ok = 0.0 <= value <= 1.0 and _agrees(value, other)
            except ghs.GhsError:
                skipped += 1
                continue
            misses += not ok
        model = posterior.PosteriorModel(3, 1.0)
        picks = np.unique(np.linspace(0, len(self.batch) - 1, self.sizes.batch_checks).astype(int))
        for i in picks[first["returned"][picks]]:
            try:
                oracle = posterior.posterior_mean_mixture_oracle(model, self.batch[i])
            except ghs.GhsError:
                skipped += 1
                continue
            misses += not _agrees(first["batch"][i], oracle)
        for p in passes[1:]:
            misses += not (
                np.array_equal(p.data["batch"], first["batch"], equal_nan=True)
                and _grid_outcomes(p) == _grid_outcomes(passes[0])
            )
        return misses, {"oracle_skipped": skipped}

    def stage_metrics(self, p):
        lat_us = p.data["latency"] * 1e6
        return {
            "posterior_grid_s": p.phases["grid"],
            "posterior_evals_per_s": len(lat_us) / p.phases["batch"],
            "posterior_p50_us": float(np.percentile(lat_us, 50)),
            "posterior_p99_us": float(np.percentile(lat_us, 99)),
        }


def _grid_outcomes(p):
    return [(e, None if e else np.asarray(v).tolist()) for *_, v, e in p.data["grid"]]


# ---------------------------------------------------------------------------
# cli-distribution: density, sample and risk through ghs.cli.main
# ---------------------------------------------------------------------------


class CliWorkload:
    name = "cli-distribution"

    def __init__(self, seed, sizes, work):
        self.seed, self.sizes, self.work = seed, sizes, work

    def prepare(self):
        s = self.sizes
        self.commands = [
            ("density", "density.csv",
             ["density", "--d", str(s.density_d), f"--grid={s.density_grid}"]),
            ("sample", "sample.csv",
             ["sample", "--d", str(s.sample_d), "--n", str(s.sample_n), "--seed", str(self.seed)]),
        ] + [("risk", f"risk{i}.csv", ["risk", *spec]) for i, spec in enumerate(s.risk)]

    def _call(self, argv, out):
        try:
            cli.main([*argv, "--out", out])
        except SystemExit as exc:
            return None if exc.code in (0, None) else "SystemExit"
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            return type(exc).__name__
        return None

    def run_pass(self, tracer, k):
        span = tracer.span if tracer else _no_span
        out_dir = os.path.join(self.work, f"pass{k}")
        os.makedirs(out_dir, exist_ok=True)
        p = Pass()
        errors = {}
        perf = time.perf_counter
        t_pass = perf()
        with span("bench.pass"):
            for op, (kind, fname, argv) in enumerate(self.commands):
                t0 = perf()
                with span("cli." + kind, op):
                    error = self._call(argv, os.path.join(out_dir, fname))
                p.phases[kind] += perf() - t0
                if error is not None:
                    p.failed[error] += 1
                    errors[fname] = error
        p.wall = perf() - t_pass
        p.attempted = len(self.commands)
        p.data = {"dir": out_dir, "errors": errors, "bytes": tree_bytes(out_dir)}
        return p

    def check(self, passes):
        """Checks of every first-pass output whose command returned."""
        first = passes[0].data["dir"]
        checks = {"density.csv": self._check_density, "sample.csv": self._check_sample}
        for i, rows in enumerate(self.sizes.risk_rows):
            checks[f"risk{i}.csv"] = lambda path, rows=rows: self._check_risk(path, rows)
        misses = sum(
            not check(os.path.join(first, fname))
            for fname, check in checks.items()
            if fname not in passes[0].data["errors"]
        )
        sample = os.path.join(first, "sample.csv")
        again = [p.data["dir"] for p in passes[1:]]
        if not again:
            again = [os.path.join(self.work, "repeat")]
            os.makedirs(again[0])
            _, fname, argv = self.commands[1]
            self._call(argv, os.path.join(again[0], fname))
        digest = file_digest(sample)
        same = all(file_digest(os.path.join(d, "sample.csv")) == digest for d in again)
        misses += not same
        return misses, {"sample_bytes_repeat": same}

    def _rows(self, path, expect, picks_n):
        """(header, row count, evenly spaced parsed rows) without loading the file."""
        picks = set(np.linspace(0, expect - 1, picks_n).astype(int).tolist())
        rows, count = [], 0
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            for line in fh:
                if count in picks:
                    rows.append([float(v) for v in line.split(",")])
                count += 1
        return header, count, rows

    def _check_density(self, path):
        s = self.sizes
        d = s.density_d
        try:
            header, count, rows = self._rows(path, s.density_rows, s.density_checks)
        except (OSError, ValueError):
            return False
        ok = count == s.density_rows and header[-2:] == ["density", "log_density"]
        for row in rows:
            x, dens = np.array(row[:d]), row[d]
            if math.isinf(dens):
                ok &= not x.any()
            else:
                ok &= _agrees(dens / density_quadrature_oracle(d, x), 1.0)
        return ok

    def _check_sample(self, path):
        s = self.sizes
        try:
            header, count, rows = self._rows(path, s.sample_n, 10)
        except (OSError, ValueError):
            return False
        return (
            count == s.sample_n
            and header == ["lambda"] + [f"x{i + 1}" for i in range(s.sample_d)]
            and all(r[0] >= 0 and np.isfinite(r).all() for r in rows)
        )

    def _check_risk(self, path, expect):
        try:
            header, count, rows = self._rows(path, expect, expect)
        except (OSError, ValueError):
            return False
        return count == expect and all(0.0 < r[2] < 1.0 and 0.0 < r[3] < math.inf for r in rows)

    def stage_metrics(self, p):
        return {
            "cli_density_s": p.phases["density"],
            "cli_sample_s": p.phases["sample"],
            "cli_risk_s": p.phases["risk"],
        }


# ---------------------------------------------------------------------------
# gibbs-study: the paper-spec selection study on one process
# ---------------------------------------------------------------------------


class GibbsWorkload:
    name = "gibbs-study"

    def __init__(self, seed, sizes, work):
        self.seed, self.sizes, self.work = seed, sizes, work

    def prepare(self):
        self.config = study.StudyConfig(seed=self.seed, threads=1, **self.sizes.study)

    def run_pass(self, tracer, k):
        span = tracer.span if tracer else _no_span
        out_dir = os.path.join(self.work, f"pass{k}")
        p = Pass()
        t0 = time.perf_counter()
        with span("bench.pass"), span("study.run_study", 0):
            records, failures = study.run_study(self.config, out_dir)
        p.wall = time.perf_counter() - t0
        c = self.config
        p.attempted = len(c.scenarios) * c.replications
        p.failed.update(f["error"].split(":")[0] for f in failures)
        p.data = {"dir": out_dir, "records": records, "bytes": tree_bytes(out_dir)}
        return p

    def check(self, passes):
        first = passes[0].data
        misses = sum(
            not all(0.0 <= m["three_way_rate"] <= 1.0 for m in r["methods"].values())
            for r in first["records"]
        )
        again = [p.data["dir"] for p in passes[1:]]
        if not again:
            again = [os.path.join(self.work, "repeat")]
            study.run_study(self.config, again[0])
        digest = tree_digest(first["dir"])
        same = all(tree_digest(d) == digest for d in again)
        misses += not same
        return int(misses), {"study_bytes_repeat": same}

    def stage_metrics(self, p):
        return {}


WORKLOADS = {w.name: w for w in (PosteriorWorkload, CliWorkload, GibbsWorkload)}

# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# per-layer metric -> unit; spans give ``.calls``, ``.self_s`` and ``.s``
PER_LAYER = {
    "specfun.log_phi1.calls": "count",
    "specfun.log_phi1.self_s": "s",
    "specfun.log_kummer_1f1.calls": "count",
    "specfun.log_kummer_1f1.taylor.calls": "count",
    "specfun.log_kummer_1f1.asymptotic.calls": "count",
    "specfun.log_kummer_1f1.self_s": "s",
    "specfun.expint.calls": "count",
    "specfun.expint.series.calls": "count",
    "specfun.expint.cf.calls": "count",
    "specfun.expint.self_s": "s",
    "quadrature.adaptive_quad.calls": "count",
    "quadrature.adaptive_quad.self_s": "s",
    "posterior.marginal_log_density.self_s": "s",
    "posterior.posterior_mean.self_s": "s",
    "posterior.side_model_shrinkage.self_s": "s",
    "posterior.grid.tau_lt1_s": "s",
    "posterior.grid.tau_eq1_s": "s",
    "posterior.grid.tau_gt1_s": "s",
    "posterior.failed.NumericalError": "count",
    "posterior.failed.DomainError": "count",
    "posterior.failed.other": "count",
    "posterior.failed.check": "count",
    "distribution.log_density.calls": "count",
    "distribution.log_density.self_s": "s",
    "distribution.sample_arrays.s": "s",
    "risk.kl_ball_prior_mass.s": "s",
    "risk.radial_log_density.calls": "count",
    "cli.density.self_s": "s",
    "cli.sample.self_s": "s",
    "cli.risk.self_s": "s",
    "cli.bytes_written": "bytes",
    "gamsel.generate_data.s": "s",
    "gamsel.build_design.s": "s",
    "gamsel.gibbs_sampler.s": "s",
    "gamsel.gamma_statistics.s": "s",
    "gamsel.kmeans_threshold.s": "s",
    "gamsel.ms_per_sweep": "ms",
    "gamsel.factorize_s": "s",
    "gamsel.coef_draw_s": "s",
    "gamsel.sweep_rest_s": "s",
    "study.run_replication.s": "s",
    "study.write_aggregates.s": "s",
    "study.bytes_written": "bytes",
    "trace.overhead_s": "s",
    # stage metrics of one workload each, from the untraced pass
    "posterior_grid_s": "s",
    "posterior_evals_per_s": "1/s",
    "posterior_p50_us": "us",
    "posterior_p99_us": "us",
    "cli_density_s": "s",
    "cli_sample_s": "s",
    "cli_risk_s": "s",
}


def layer_values(workload, untraced, traced, tracer, check_misses):
    """Every per-layer metric of one traced run (zero where a layer is idle)."""
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    v = {m: 0 for m in PER_LAYER}
    for layer in ("specfun.log_phi1", "specfun.log_kummer_1f1", "specfun.expint",
                  "quadrature.adaptive_quad", "distribution.log_density"):
        v[layer + ".calls"] = calls(layer)
        v[layer + ".self_s"] = own(layer)
    v.update((k, n) for k, n in tracer.counts.items() if k in v)
    for fname in ("marginal_log_density", "posterior_mean", "side_model_shrinkage"):
        v[f"posterior.{fname}.self_s"] = own("posterior." + fname)
    v["distribution.sample_arrays.s"] = total("distribution.sample_arrays")
    v["risk.kl_ball_prior_mass.s"] = total("risk.kl_ball_prior_mass")
    v["risk.radial_log_density.calls"] = calls("risk.radial_log_density")
    for kind in ("density", "sample", "risk"):
        v[f"cli.{kind}.self_s"] = own("cli." + kind)
    for fname in ("generate_data", "build_design", "gibbs_sampler", "gamma_statistics",
                  "kmeans_threshold"):
        v[f"gamsel.{fname}.s"] = total("gamsel." + fname)
    v["gamsel.factorize_s"] = total("gamsel.cho_factor")
    v["gamsel.coef_draw_s"] = total("gamsel.cho_solve") + total("gamsel.solve_triangular")
    v["gamsel.sweep_rest_s"] = own("gamsel.gibbs_sampler")
    sweeps = calls("gamsel.cho_factor")
    if sweeps:
        sampler = total("gamsel.gibbs_sampler") - total("gamsel.build_design")
        v["gamsel.ms_per_sweep"] = 1e3 * sampler / sweeps
    v["study.run_replication.s"] = total("study.run_replication")
    v["study.write_aggregates.s"] = total("study.write_aggregates")
    if workload.name == "cli-distribution":
        v["cli.bytes_written"] = traced.data["bytes"]
    elif workload.name == "gibbs-study":
        v["study.bytes_written"] = traced.data["bytes"]
    else:
        for regime in ("tau_lt1", "tau_eq1", "tau_gt1"):
            v[f"posterior.grid.{regime}_s"] = untraced.phases["grid." + regime]
        for error, n in untraced.failed.items():
            name = f"posterior.failed.{error}"
            v[name if name in v else "posterior.failed.other"] += n
        v["posterior.failed.check"] = check_misses
    v["trace.overhead_s"] = traced.wall - untraced.wall
    v.update(workload.stage_metrics(untraced))
    return v


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------

IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from probe import SpeedProbe
with SpeedProbe() as probe:
    t = time.perf_counter()
    import ghs
    wall = time.perf_counter() - t
print(probe.in_reference_units(wall))
"""


def cold_import_ref():
    """``import ghs`` in a fresh interpreter, in reference units."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, os.path.dirname(os.path.abspath(__file__)), SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def provenance(seed):
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ghs": ghs.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": tree_digest(os.path.join(SRC, "ghs")),
    }


def run(workload_name, seed, seconds, trace, sizes=FULL):
    """Run one workload; return the full result document."""
    work = os.path.join(WORK, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](seed, sizes, work)
        setups = []
        for _ in range(sizes.setup_reps):
            imported = cold_import_ref()
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                workload.prepare()
                prepared = probe.in_reference_units(time.perf_counter() - t0)
            setups.append((imported + prepared) * NOMINAL_REFERENCE_S)

        tracer = None
        if trace:
            passes = [workload.run_pass(None, 0)]
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(workload.run_pass(tracer, 1))
            finally:
                tracer.uninstall()
        else:
            passes = []
            t_start = time.perf_counter()
            while not passes or time.perf_counter() - t_start < seconds:
                with SpeedProbe() as probe:
                    p = workload.run_pass(None, len(passes))
                p.ref = probe.in_reference_units(p.wall)
                passes.append(p)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        misses, check_notes = workload.check(passes)
        attempted = sum(p.attempted for p in passes)
        failed = sum(sum(p.failed.values()) for p in passes) + misses

        if trace:
            values = layer_values(workload, passes[0], passes[1], tracer, misses)
            units = PER_LAYER
            tracer.save(os.path.join(RESULTS, f"{workload_name}-seed{seed}.spans.npz"))
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_ref": statistics.median(p.ref for p in passes),
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": 1.0 - failed / attempted,
            }
            units = END_TO_END
        doc = {
            "workload": workload_name,
            "trace": int(trace),
            "seconds": seconds,
            "passes": len(passes),
            "pass_wall_s": [p.wall for p in passes],
            "pass_wall_ref": [p.ref for p in passes],
            "setup_runs_s": setups,
            "failed_by_type": dict(sum((p.failed for p in passes), Counter())),
            "check_misses": int(misses),
            "checks": check_notes,
            "stage_metrics": workload.stage_metrics(passes[0]),
            "provenance": provenance(seed),
            "result": {
                "correct": misses == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            },
        }
        if tracer is not None:
            doc["spans"] = {k: list(v) for k, v in tracer.summary().items()}
            doc["traced_wall_s"] = passes[1].wall
        return doc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    doc = run(args.workload, args.seed, args.seconds, args.trace)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print("provenance " + json.dumps(doc["provenance"], sort_keys=True))
    print("stages " + json.dumps(doc["stage_metrics"], sort_keys=True))
    for name, m in doc["result"]["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(doc["result"]))


if __name__ == "__main__":
    main()
