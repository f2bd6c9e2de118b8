"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -s``
to see the lines for passing criteria too).

Each criterion is independent; stated runtime budgets are asserted.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest
from scipy import special as sp

from ghs.cli import main as cli_main
from ghs.distribution import (
    GhsDistribution,
    density,
    density_quadrature_oracle,
    radial_log_density,
)
from ghs.gamsel import build_design, generate_data, gibbs_sampler, kmeans_threshold
from ghs.gamsel import AdditiveModelSpec, Hyper
from ghs.posterior import (
    PosteriorModel,
    SideModel,
    marginal_log_density_quad,
    posterior_mean,
    posterior_mean_mixture_oracle,
    score,
    side_model_shrinkage,
)
from ghs.risk import RiskScenario, risk_upper_bound
from ghs.study import StudyConfig, run_study
from oracles import normalization_integral, posterior_mean_moment_oracle

DESK_STUDY = StudyConfig(
    n=(2000,),
    sigma_eps=(0.25,),
    replications=6,
    seed=2024,
    d_lin=10,
    d_nl=20,
    basis_size=6,
    iters=2000,
    burn=500,
)


def report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def spherical_point(d, r, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    return r * v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def desk_study_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_study") / "run"
    records, failures = run_study(DESK_STUDY, out)
    return out, records, failures


def test_criterion_01_density_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for d in (1, 2, 3, 5, 10):
        dist = GhsDistribution(d)
        for r in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            x = spherical_point(d, r, seed=100 * d + int(100 * r))
            rel = abs(
                density(dist, x) / density_quadrature_oracle(d, x) - 1.0
            )
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(
        1,
        "density closed form vs mixture-integral oracle",
        worst < 1e-8 and elapsed < 10.0,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_normalization():
    start = time.monotonic()
    worst = max(abs(normalization_integral(d) - 1.0) for d in (1, 2, 3))
    elapsed = time.monotonic() - start
    report(
        2,
        "density integrates to 1 by radial quadrature (d = 1, 2, 3)",
        worst < 1e-6 and elapsed < 30.0,
        f"worst |mass-1| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_pole_constant():
    worst = 0.0
    for d in (2, 3, 5):
        k_d = math.exp(
            sp.gammaln(0.5 * (d + 1))
            - 0.5 * (math.log(2.0) + (d + 2) * math.log(math.pi))
        )
        target = k_d * 2.0 / (d - 1.0)
        value = math.exp(radial_log_density(d, 1e-4)) * (1e-4) ** (d - 1)
        worst = max(worst, abs(value / target - 1.0))
    report(3, "pole rate constant K_d 2/(d-1) at r = 1e-4", worst < 0.01, f"worst rel {worst:.2e}")


def test_criterion_04_score_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    worst_fd = 0.0
    for _ in range(30):
        d = int(rng.integers(1, 6))
        tau = float(rng.choice([0.5, 1.0, 2.0]))
        y = rng.standard_normal(d) * rng.uniform(0.3, 3.0)
        model = PosteriorModel(d, tau)
        h = 1e-5
        grad = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            grad[i] = (
                marginal_log_density_quad(model, y + e)
                - marginal_log_density_quad(model, y - e)
            ) / (2.0 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(score(model, y) - grad))))
    worst_tail = 0.0
    for d, tau in [(1, 1.0), (2, 0.5), (3, 2.0)]:
        y = spherical_point(d, 200.0, seed=d)
        target = -(d + 1.0) * y / float(y @ y)
        s = score(PosteriorModel(d, tau), y)
        worst_tail = max(
            worst_tail, float(np.linalg.norm(s - target) / np.linalg.norm(target))
        )
    elapsed = time.monotonic() - start
    report(
        4,
        "score vs finite-difference oracle and tail form",
        worst_fd < 1e-5 and worst_tail < 0.01 and elapsed < 60.0,
        f"fd {worst_fd:.2e}, tail rel {worst_tail:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_posterior_mean_identity():
    worst_identity = 0.0
    for d, tau, r, seed in [
        (1, 1.0, 0.5, 1),
        (2, 2.0, 1.5, 2),
        (3, 0.5, 3.0, 3),
        (5, 1.0, 8.0, 4),
        (2, 1.0, 0.05, 5),
    ]:
        model = PosteriorModel(d, tau)
        y = spherical_point(d, r, seed=seed)
        oracle = (
            posterior_mean_moment_oracle(model, y)
            if tau >= 1.0
            else posterior_mean_mixture_oracle(model, y)
        )
        gap = np.max(np.abs((y - oracle) - (-score(model, y))))
        worst_identity = max(worst_identity, float(gap))
    worst_miss = 0.0
    for d in (1, 2, 3):
        y = np.zeros(d)
        y[0] = 100.0
        miss = np.linalg.norm(y - posterior_mean(PosteriorModel(d, 1.0), y))
        worst_miss = max(worst_miss, abs(miss / ((d + 1) / 100.0) - 1.0))
    report(
        5,
        "posterior-mean/score identity and (d+1)/||y|| miss",
        worst_identity < 1e-9 and worst_miss < 0.05,
        f"identity {worst_identity:.2e}, miss rel {worst_miss:.2e}",
    )


def test_criterion_06_risk_rates():
    start = time.monotonic()
    ns = [10**k for k in range(5, 9)]

    def slope_and_values(scenario, half_coef=1.0):
        vals = [
            n * risk_upper_bound(scenario, n) - half_coef * math.log(n) / 2.0
            for n in ns
        ]
        x = np.vstack([np.log(np.log(ns)), np.ones(len(ns))]).T
        return float(np.linalg.lstsq(x, vals, rcond=None)[0][0]), vals

    slope1, _ = slope_and_values(RiskScenario(1))
    ok_a = abs(-slope1 - 1.0) < 0.15
    ok_b = True
    detail_b = []
    for d in (2, 3):
        slope_d, vals = slope_and_values(RiskScenario(d))
        ok_b &= abs(slope_d) < 0.15 and (max(vals) - min(vals) < 0.2)
        detail_b.append(f"d={d} slope {slope_d:+.3f}")
    _, vals_c = slope_and_values(RiskScenario(2, 1.0, (1.0, 1.0)), half_coef=2.0)
    ok_c = max(vals_c) - min(vals_c) < 0.25
    elapsed = time.monotonic() - start
    report(
        6,
        "risk-bound rates (super-efficiency only at d = 1)",
        ok_a and ok_b and ok_c and elapsed < 120.0,
        f"d=1 coeff {-slope1:.3f}; {'; '.join(detail_b)}; off-origin spread "
        f"{max(vals_c) - min(vals_c):.3f}; {elapsed:.1f}s",
    )


def test_criterion_07_side_model():
    rng = np.random.default_rng(7)
    ok_interval = True
    worst_gap = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        model = SideModel(d, float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)))
        y = rng.standard_normal(d) * float(rng.uniform(0.0, 30.0))
        wx = side_model_shrinkage(model, y, "x")
        wl = side_model_shrinkage(model, y, "lambda")
        ok_interval &= 0.0 < wx < 1.0
        worst_gap = max(worst_gap, abs(wx - wl))
    report(
        7,
        "side-model shrinkage weight",
        ok_interval and worst_gap < 1e-9,
        f"param gap {worst_gap:.2e}",
    )


def test_criterion_08_sampler_validity():
    # conjugate oracle with frozen scales
    spec = AdditiveModelSpec(
        n=120, d_lin=1, d_nl=0, basis_size=(), hyper=Hyper(intercept_sd=10.0)
    )
    data = generate_data(spec, 1.0, 21, truth=("linear",))
    fixed = {"lambda_beta": [0.8], "sigma_beta": 1.3, "sigma_eps": 0.9}
    chain = gibbs_sampler(data, spec, iters=4000, burn=0, seed=5, fixed_scales=fixed)
    c, _, _ = build_design(data, spec)
    prec = np.diag([10.0**-2, 1.0 / (1.3 * 0.8) ** 2])
    q = c.T @ c / 0.9**2 + prec
    mu = np.linalg.solve(q, c.T @ data.y / 0.9**2)
    sd = np.sqrt(np.diag(np.linalg.inv(q)))
    draws = np.column_stack([chain.beta0, chain.beta[:, 0]])
    z = (draws.mean(axis=0) - mu) / (sd / math.sqrt(len(chain)))
    ok_conjugate = bool(np.max(np.abs(z)) < 3.0)

    # exhaustive-split equivalence of the 2-means border on 200 instances
    rng = np.random.default_rng(808)
    mismatches = 0
    checked = 0
    while checked < 200:
        vals = rng.random(int(rng.integers(2, 40)))
        if np.unique(vals).size < 2:
            continue
        checked += 1
        srt = np.sort(vals)
        best = (math.inf, None)
        for k in range(1, srt.size):
            left, right = srt[:k], srt[k:]
            wcss = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if wcss < best[0] - 1e-15:
                best = (wcss, 0.5 * (left.mean() + right.mean()))
        if abs(kmeans_threshold(vals) - best[1]) > 1e-12:
            mismatches += 1
    report(
        8,
        "Gibbs conjugate oracle and exhaustive 2-means equivalence",
        ok_conjugate and mismatches == 0,
        f"max |z| {np.max(np.abs(z)):.2f}, split mismatches {mismatches}/200",
    )


def test_criterion_09_selection_study(desk_study_run):
    start = time.monotonic()
    _, records, failures = desk_study_run
    assert not failures, failures
    err_half = err_kmeans = total = 0
    error_kinds = {}
    for rec in records:
        truth = rec["truth"]
        half = rec["methods"]["border_half"]
        km = rec["methods"]["kmeans"]
        err_half += half["three_way_errors"]
        err_kmeans += km["three_way_errors"]
        total += half["three_way_total"]
        for lab, tru in zip(half["labels"], truth):
            if lab != tru:
                error_kinds[(tru, lab)] = error_kinds.get((tru, lab), 0) + 1
    rate_half = err_half / total
    lin_to_nl = error_kinds.get(("linear", "non-linear"), 0)
    most_lin_nl = lin_to_nl > err_half / 2
    elapsed = time.monotonic() - start
    report(
        9,
        "desk-scale selection study (6 replications, n = 2000, sd 0.25)",
        rate_half > 0.15 and most_lin_nl and err_kmeans < err_half and elapsed < 900.0,
        f"half-border {err_half}/{total} = {100 * rate_half:.1f}%, "
        f"linear->non-linear {lin_to_nl}/{err_half}, 2-means {err_kmeans}/{total}",
    )


def test_criterion_10_determinism(desk_study_run, tmp_path):
    out_a, _, _ = desk_study_run
    out_b = tmp_path / "rerun"
    run_study(DESK_STUDY, out_b)
    diffs = []
    for root, _, files in os.walk(out_a):
        rel = os.path.relpath(root, out_a)
        for name in sorted(files):
            twin = os.path.join(out_b, rel, name)
            if not (os.path.exists(twin) and filecmp.cmp(os.path.join(root, name), twin, shallow=False)):
                diffs.append(os.path.join(rel, name))
    # CLI sampling replay
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        cli_main(
            ["sample", "--d", "2", "--n", "100", "--seed", "77", "--out", str(out)]
        )
    cli_same = s1.read_bytes() == s2.read_bytes()
    report(
        10,
        "byte-identical re-runs under a fixed master seed",
        not diffs and cli_same,
        f"study file diffs {diffs or 'none'}, sample replay identical: {cli_same}",
    )
