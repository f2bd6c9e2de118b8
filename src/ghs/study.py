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
import numbers
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError
from .files import atomic_write
from .gamsel import (
    AdditiveModelSpec,
    Hyper,
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
    basis_scale: float = 0.15
    linear_coef: float = 1.0
    nonlinear_amp: float = 1.0
    iters: int = 5000
    burn: int = 1000
    threads: int = 1
    save_chains: bool = False
    hyper: Hyper = field(default_factory=Hyper)

    def __post_init__(self):
        """Reject a bad config here, before any replication runs."""
        for name in ("iters", "burn", "replications", "threads"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        n = _as_list(self.n)
        if not all(isinstance(v, numbers.Real) and v >= 1 and v % 1 == 0 for v in n):
            raise ConfigError(f"n takes whole numbers >= 1, got {self.n!r}")
        object.__setattr__(self, "n", tuple(int(v) for v in n))
        object.__setattr__(
            self, "sigma_eps", tuple(float(v) for v in _as_list(self.sigma_eps))
        )
        if not all(0 <= v < math.inf for v in self.sigma_eps):
            raise ConfigError(f"sigma_eps must be finite and >= 0, got {self.sigma_eps!r}")
        truth = tuple(self.truth) or self.default_truth()
        if len(truth) != self.d_lin + self.d_nl:
            raise ConfigError("truth pattern length must equal d_lin + d_nl")
        object.__setattr__(self, "truth", truth)
        if self.replications < 1 or not self.iters > self.burn >= 0 or self.threads < 1:
            raise ConfigError("need replications >= 1, iters > burn >= 0 and threads >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")

    def default_truth(self):
        n_lin = self.d_nl // 2
        return (
            ("zero",) * self.d_lin
            + ("linear",) * n_lin
            + ("non-linear",) * (self.d_nl - n_lin)
        )

    @property
    def scenarios(self):
        return [(n, s) for n in self.n for s in self.sigma_eps]

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        hyper = Hyper(**doc.pop("hyper")) if "hyper" in doc else Hyper()
        known = {k: v for k, v in doc.items() if k in cls.__dataclass_fields__}
        unknown = set(doc) - set(known)
        if unknown:
            raise ConfigError(f"unknown study config fields: {sorted(unknown)}")
        return cls(hyper=hyper, **known)

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        doc = {
            k: getattr(self, k)
            for k in self.__dataclass_fields__
            if k != "hyper"
        }
        doc["n"] = list(self.n)
        doc["sigma_eps"] = list(self.sigma_eps)
        doc["truth"] = list(self.truth)
        doc["hyper"] = vars(self.hyper).copy()
        return doc


def _as_list(v):
    return v if isinstance(v, (list, tuple)) else [v]


def _scenario_dir(out_dir, n, sigma):
    return os.path.join(out_dir, f"n{n}_sig{sigma:g}")


def _rates(labels, truth):
    three = misclassification_rate(labels, truth)
    pairs = [(l, t) for l, t in zip(labels, truth) if t in ("linear", "non-linear")]
    errors = sum(1 for l, t in pairs if l != t)
    return {
        "three_way_errors": three.count,
        "three_way_total": three.total,
        "three_way_rate": three.rate,
        "linvnl_errors": errors,
        "linvnl_total": len(pairs),
        "linvnl_rate": errors / len(pairs) if pairs else 0.0,
    }


def run_replication(config: StudyConfig, n, sigma, rep, out_dir=None):
    """One scenario cell x replication; returns the aggregate record."""
    scenario_id = config.scenarios.index((n, sigma))
    spec = AdditiveModelSpec(
        n=n,
        d_lin=config.d_lin,
        d_nl=config.d_nl,
        basis_size=config.basis_size,
        basis_scale=config.basis_scale,
        hyper=config.hyper,
    )
    data = generate_data(
        spec,
        sigma,
        split_seed(config.seed, scenario_id, rep, 0),
        truth=config.truth,
        linear_coef=config.linear_coef,
        nonlinear_amp=config.nonlinear_amp,
    )
    chain = gibbs_sampler(
        data,
        spec,
        config.iters,
        config.burn,
        split_seed(config.seed, scenario_id, rep, 1),
    )
    report = gamma_statistics(chain, truth=config.truth)
    labels_half = classify(report, 0.5)
    gu_vals = [g for g in report.gamma_u if g is not None]
    border_k = kmeans_threshold(gu_vals)
    labels_k = classify(report, 0.5, border_u=border_k)
    report.labels = labels_half
    report.border = 0.5
    report.misclassification = _rates(labels_half, config.truth)["three_way_rate"]

    record = {
        "n": n,
        "sigma_eps": sigma,
        "replication": rep,
        "gamma_beta": report.gamma_beta,
        "gamma_u": report.gamma_u,
        "truth": list(config.truth),
        "diagnostics": chain.diagnostics,
        "methods": {
            "border_half": {
                "border": 0.5,
                "labels": labels_half,
                **_rates(labels_half, config.truth),
            },
            "kmeans": {
                "border": border_k,
                "labels": labels_k,
                **_rates(labels_k, config.truth),
            },
        },
    }
    if out_dir is not None:
        sdir = _scenario_dir(out_dir, n, sigma)
        os.makedirs(sdir, exist_ok=True)
        atomic_write(
            os.path.join(sdir, f"rep{rep:02d}.json"),
            [json.dumps(record, indent=1, sort_keys=True), "\n"],
        )
        if config.save_chains:
            chain_to_csv(chain, os.path.join(sdir, f"rep{rep:02d}_chain.csv"))
    return record


def _task(args):
    config_doc, n, sigma, rep, out_dir = args
    config = StudyConfig.from_dict(config_doc)
    return run_replication(config, n, sigma, rep, out_dir)


def run_study(config: StudyConfig, out_dir):
    """Run the whole grid; returns (records, failures)."""
    os.makedirs(out_dir, exist_ok=True)
    tasks = [
        (config.to_dict(), n, sigma, rep, out_dir)
        for n, sigma in config.scenarios
        for rep in range(config.replications)
    ]
    records, failures = [], []
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
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
    atomic_write(
        os.path.join(out_dir, "manifest.json"),
        [json.dumps(manifest, indent=1, sort_keys=True), "\n"],
    )
    return records, failures


def _run_guarded(args):
    try:
        return _task(args), None
    except Exception as exc:  # noqa: BLE001 - isolate per-task failures
        return None, f"{type(exc).__name__}: {exc}"


def write_aggregates(records, out_dir):
    """misclassification.csv and gamma_values.csv from sorted records."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [MISCLASS_HEADER]
    for r in records:
        for method in ("border_half", "kmeans"):
            m = r["methods"][method]
            lines.append(
                ",".join(
                    [
                        str(r["n"]),
                        repr(float(r["sigma_eps"])),
                        str(r["replication"]),
                        method,
                        repr(float(m["border"])),
                        str(m["three_way_errors"]),
                        str(m["three_way_total"]),
                        repr(float(m["three_way_rate"])),
                        str(m["linvnl_errors"]),
                        str(m["linvnl_total"]),
                        repr(float(m["linvnl_rate"])),
                    ]
                )
            )
    atomic_write(os.path.join(out_dir, "misclassification.csv"), ["\n".join(lines), "\n"])

    lines = [GAMMA_HEADER]
    for r in records:
        for j, truth in enumerate(r["truth"]):
            gu = r["gamma_u"][j]
            lines.append(
                ",".join(
                    [
                        str(r["n"]),
                        repr(float(r["sigma_eps"])),
                        str(r["replication"]),
                        str(j + 1),
                        truth,
                        repr(float(r["gamma_beta"][j])),
                        "" if gu is None else repr(float(gu)),
                    ]
                )
            )
    atomic_write(os.path.join(out_dir, "gamma_values.csv"), ["\n".join(lines), "\n"])


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
