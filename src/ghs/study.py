"""Simulation-study runner: scenario grid x replications, with per-task
seeds, atomic file output, and aggregate misclassification tables.

Each replication simulates a dataset, runs the Gibbs sampler, computes the
threshold statistics, and classifies every predictor twice: with the fixed
1/2 border and with the data-driven 2-means border on the spline-block
statistics.  Outputs per replication (JSON report) plus study-level CSVs
(misclassification rates and the per-predictor statistic values used for
strip charts).  A manifest records the configuration and per-task status;
failed replications are listed there instead of aborting the study.
"""

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, _check_integer, _check_real, _check_whole
from .files import write_csv, write_json
from .gamsel import (
    AdditiveModelSpec,
    Hyper,
    _check_model,
    _check_truth,
    chain_to_csv,
    classify,
    gamma_statistics,
    generate_data,
    gibbs_sampler,
    kmeans_threshold,
    misclassification_rate,
)
from .rng import split_seed

__all__ = ["StudyConfig", "run_study", "write_aggregates", "load_reports"]

MISCLASS_HEADER = (
    "n,sigma_eps,replication,method,border,three_way_errors,three_way_total,"
    "three_way_rate,linvnl_errors,linvnl_total,linvnl_rate"
)
GAMMA_HEADER = "n,sigma_eps,replication,predictor,truth,gamma_beta,gamma_u"


@dataclass(frozen=True)
class StudyConfig:
    """Scenario grid and sampler settings for one simulation study."""

    n: tuple = (500, 1000, 2000)
    sigma_eps: tuple = (0.25, 0.5, 1.0, 2.0)
    replications: int = 6
    seed: int = 2024
    d_lin: int = 10
    d_nl: int = 20
    truth: tuple = ()
    basis_size: int = 6
    iters: int = 5000
    burn: int = 1000
    threads: int = 1
    save_chains: bool = False
    hyper: Hyper = field(default_factory=Hyper)

    def __post_init__(self):
        """Reject a bad config here, before any replication runs."""
        # d_nl >= 2: the 2-means border splits the spline-block statistics;
        # a seed of any size is a seed, and its sign is checked last, as the
        # DomainError make_rng raises
        for name, least in dict(iters=1, burn=0, replications=1, threads=1, d_nl=2).items():
            _check_integer(getattr(self, name), name, least, ConfigError, sys.maxsize)
        _check_integer(self.seed, "seed", -math.inf, ConfigError)
        _check_model(self.d_lin, self.d_nl, self.basis_size, self.hyper)
        if not isinstance(self.save_chains, bool):
            raise ConfigError(f"save_chains must be true or false, got {self.save_chains!r}")
        n, sigma_eps = _as_list(self.n), _as_list(self.sigma_eps)
        if not n or not sigma_eps:
            raise ConfigError("n and sigma_eps each take one or more values")
        n = tuple(_check_whole(v, "n", 1, ConfigError) for v in n)
        _check_integer(max(n), "n", 1, ConfigError, sys.maxsize)  # AdditiveModelSpec's bound
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sigma_eps", tuple(
            _check_real(v, "sigma_eps", 0.0, ConfigError, inclusive=True) for v in sigma_eps
        ))
        dirs = {}  # each scenario writes its own directory, from its own seeds (0.0 and -0.0 share them)
        for cell in self.scenarios:
            name = _scenario_dir("", cell[0], cell[1] + 0.0)
            if name in dirs:
                raise ConfigError(f"scenarios (n, sigma_eps) = {dirs[name]} and {cell} collide: "
                                  "each needs its own directory name and seeds")
            dirs[name] = cell
        object.__setattr__(self, "truth", _check_truth(self.truth, self.d_lin, self.d_nl))
        if not self.iters > self.burn:
            raise ConfigError(f"need iters > burn, got {self.iters}, {self.burn}")
        _check_integer(self.seed, "seed")

    @property
    def scenarios(self):
        return [(n, s) for n in self.n for s in self.sigma_eps]

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError(f"a study config is a JSON object, got {doc!r}")
        doc = dict(doc)
        hyper = doc.pop("hyper", {})
        fields = sorted(Hyper.__dataclass_fields__)
        if not isinstance(hyper, dict) or set(hyper) - set(fields):
            raise ConfigError(f"hyper takes fields of {fields}, got {hyper!r}")
        known = {k: v for k, v in doc.items() if k in cls.__dataclass_fields__}
        unknown = set(doc) - set(known)
        if unknown:
            raise ConfigError(f"unknown study config fields: {sorted(unknown)}")
        return cls(hyper=Hyper(**hyper), **known)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"the study config {path!r} is not a JSON document in UTF-8: {exc}") from None
        return cls.from_dict(doc)

    def to_dict(self):
        return asdict(self)


def _as_list(v):
    return v if isinstance(v, (list, tuple)) else [v]


def _scenario_dir(out_dir, n, sigma):
    return os.path.join(out_dir, f"n{n}_sig{sigma:g}")


def _scores(labels, truth):
    """The labels, with their three-way and linear-or-non-linear error rates."""
    three = misclassification_rate(labels, truth)
    pairs = [(l, t) for l, t in zip(labels, truth) if t in ("linear", "non-linear")]
    errors = sum(1 for l, t in pairs if l != t)
    return {
        "labels": labels,
        "three_way_errors": three.count,
        "three_way_total": three.total,
        "three_way_rate": three.rate,
        "linvnl_errors": errors,
        "linvnl_total": len(pairs),
        "linvnl_rate": errors / len(pairs) if pairs else 0.0,
    }


def run_replication(config: StudyConfig, n, sigma, rep, out_dir):
    """One scenario cell x replication; returns the aggregate record."""
    scenario_id = config.scenarios.index((n, sigma))
    seed_data, seed_chain = (split_seed(config.seed, scenario_id, rep, stream) for stream in (0, 1))
    spec = AdditiveModelSpec(n, config.d_lin, config.d_nl, config.basis_size, config.hyper)
    data = generate_data(spec, sigma, seed_data, truth=config.truth)
    chain = gibbs_sampler(data, spec, config.iters, config.burn, seed_chain)
    report = gamma_statistics(chain)
    # each method's border for the spline blocks: 1/2, or the 2-means split of their statistics
    border_k = kmeans_threshold([g for g in report.gamma_u if g is not None])
    record = {
        "n": n,
        "sigma_eps": sigma,
        "replication": rep,
        "gamma_beta": report.gamma_beta,
        "gamma_u": report.gamma_u,
        "truth": list(config.truth),
        "diagnostics": chain.diagnostics,
        "methods": {
            method: {"border": border, **_scores(classify(report, 0.5, border_u=border), config.truth)}
            for method, border in (("border_half", 0.5), ("kmeans", border_k))
        },
    }
    sdir = _scenario_dir(out_dir, n, sigma)
    os.makedirs(sdir, exist_ok=True)
    write_json(os.path.join(sdir, f"rep{rep:02d}.json"), record)
    if config.save_chains:
        chain_to_csv(chain, os.path.join(sdir, f"rep{rep:02d}_chain.csv"))
    return record


def run_study(config: StudyConfig, out_dir):
    """Run the whole grid; returns (records, failures)."""
    os.makedirs(out_dir, exist_ok=True)
    tasks = [
        (config, n, sigma, rep, out_dir)
        for n, sigma in config.scenarios
        for rep in range(config.replications)
    ]
    records, failures = [], []
    # a fork pool starts all its workers at once: no more than there are tasks
    workers = min(config.threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_run_guarded, tasks)
    else:
        results = map(_run_guarded, tasks)
    for (_, n, sigma, rep, _), (record, error) in zip(tasks, results):
        if error is not None:
            failures.append({"n": n, "sigma_eps": sigma, "replication": rep, "error": error})
        else:
            records.append(record)
    records.sort(key=lambda r: (r["n"], r["sigma_eps"], r["replication"]))
    write_aggregates(records, out_dir)
    manifest = {
        "config": config.to_dict(),
        "completed": len(records),
        "failed": failures,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return records, failures


def _run_guarded(args):
    try:
        return run_replication(*args), None
    except Exception as exc:  # noqa: BLE001 - isolate per-task failures
        return None, f"{type(exc).__name__}: {exc}"


def write_aggregates(records, out_dir):
    """misclassification.csv and gamma_values.csv from sorted records."""
    os.makedirs(out_dir, exist_ok=True)
    method_columns = MISCLASS_HEADER.split(",")[4:]
    write_csv(
        os.path.join(out_dir, "misclassification.csv"),
        MISCLASS_HEADER,
        (
            [r["n"], r["sigma_eps"], r["replication"], method, *(scores[c] for c in method_columns)]
            for r in records
            for method, scores in sorted(r["methods"].items())
        ),
    )
    write_csv(
        os.path.join(out_dir, "gamma_values.csv"),
        GAMMA_HEADER,
        (
            [r["n"], r["sigma_eps"], r["replication"], j + 1, truth,
             r["gamma_beta"][j], r["gamma_u"][j]]
            for r in records
            for j, truth in enumerate(r["truth"])
        ),
    )


def load_reports(out_dir):
    """Re-read every per-replication JSON under a study directory."""
    records = []
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            if name.startswith("rep") and name.endswith(".json"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    records.append(json.load(fh))
    records.sort(key=lambda r: (r["n"], r["sigma_eps"], r["replication"]))
    return records
