"""Additive-model selection tests: data generator, spline basis, Gibbs
sampler validity (conjugate oracle and successive-conditional prior check),
threshold statistics, classification rule, the exact 1-D 2-means split, and
the chain export format.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghs import gamsel
from ghs.errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    LengthError,
    NumericalError,
)
from ghs.files import write_csv
from ghs.gamsel import (
    AdditiveModelSpec,
    GibbsChain,
    Hyper,
    ThresholdReport,
    _bspline_design,
    _bspline_knots,
    _draw_coefficients,
    _inv_gamma,
    _ResidualSS,
    build_design,
    chain_to_csv,
    classify,
    gamma_statistics,
    generate_data,
    gibbs_sampler,
    kmeans_threshold,
    misclassification_rate,
    spline_basis,
)

LABEL_ORDER = {"zero": 0, "linear": 1, "non-linear": 2}


def small_spec(**kw):
    base = dict(n=120, d_lin=1, d_nl=2, basis_size=4)
    base.update(kw)
    return AdditiveModelSpec(**base)


class TestGenerateData:
    def test_truth_pattern_echoed(self):
        spec = AdditiveModelSpec(n=500, d_lin=10, d_nl=20, basis_size=6)
        truth = ("zero",) * 10 + ("linear",) * 10 + ("non-linear",) * 10
        data = generate_data(spec, 2.0, 1, truth=truth)
        assert data.truth == truth
        assert data.x.shape == (500, 30)

    def test_noiseless_response_is_mean_surface(self):
        data = generate_data(small_spec(), 0.0, 9, truth=("zero", "linear", "non-linear"))
        assert np.array_equal(data.y, data.mean_surface)

    def test_deterministic_per_seed(self):
        a = generate_data(small_spec(), 0.5, 9)
        b = generate_data(small_spec(), 0.5, 9)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)

    def test_predictors_in_unit_interval(self):
        data = generate_data(small_spec(), 0.5, 4)
        assert data.x.min() >= 0.0 and data.x.max() <= 1.0

    def test_bad_truth_patterns(self):
        with pytest.raises(ConfigError):
            generate_data(small_spec(), 0.5, 1, truth=("zero", "linear"))
        with pytest.raises(ConfigError):
            generate_data(small_spec(), 0.5, 1, truth=("non-linear", "zero", "zero"))
        with pytest.raises(ConfigError):
            generate_data(small_spec(), 0.5, 1, truth=("zero", "weird", "zero"))

    @pytest.mark.parametrize("sigma_eps", [-0.5, math.nan, math.inf])
    def test_noise_scale_must_be_finite_and_nonnegative(self, sigma_eps):
        with pytest.raises(ConfigError):
            generate_data(small_spec(), sigma_eps, 1)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            AdditiveModelSpec(n=100, d_lin=1, d_nl=1, basis_size=1)
        with pytest.warns(UserWarning):
            AdditiveModelSpec(n=10, d_lin=2, d_nl=2, basis_size=4)

    @pytest.mark.parametrize("field, value", [
        ("n", 150.5), ("n", 150.0), ("n", "150"), ("d_lin", 1.5), ("d_nl", 2.0), ("d_nl", None),
    ])
    def test_counts_must_be_integers(self, field, value):
        # these constructed, and generate_data then raised a raw TypeError
        with pytest.raises(ConfigError):
            small_spec(**{field: value})

    @pytest.mark.parametrize("basis_size", [(4.5, 4), (4, 4.0), "44"])
    def test_basis_sizes_must_be_integers(self, basis_size):
        # (4.5, 4) and "44" ran K = (4, 4), without a word
        with pytest.raises(ConfigError):
            small_spec(basis_size=basis_size)

    def test_numpy_integer_counts_accepted(self):
        # a NumPy integer basis_size was taken for a sequence and refused
        spec = small_spec(n=np.int64(120), d_nl=np.int64(2), basis_size=np.int64(4))
        assert spec.basis_sizes == (4, 4)
        assert small_spec(basis_size=(np.int64(4), 5)).basis_sizes == (4, 5)

    @pytest.mark.parametrize("field", ["s_beta", "s_u", "s_eps", "intercept_sd"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 1e-160, "1"])
    def test_hyperparameters_finite_and_positive(self, field, value):
        # 0 divided by zero and 1e-160 overflowed scale**-2 in every replication,
        # nan failed at iteration 0, and -1 or inf ran silently
        with pytest.raises(ConfigError):
            Hyper(**{field: value})


class TestSplineBasis:
    def test_orthogonal_to_constant_and_linear(self):
        rng = np.random.default_rng(0)
        x = rng.random(200)
        z = spline_basis(x, 6)
        assert np.max(np.abs(z.T @ np.ones(200))) < 1e-10
        assert np.max(np.abs(z.T @ x)) < 1e-10

    def test_unit_column_norms(self):
        z = spline_basis(np.random.default_rng(1).random(150), 5)
        assert np.allclose(np.linalg.norm(z, axis=0), 1.0)

    def test_rank_equals_basis_size(self):
        z = spline_basis(np.linspace(0.0, 1.0, 50), 2)
        assert np.linalg.matrix_rank(z) == 2
        z6 = spline_basis(np.random.default_rng(2).random(100), 6)
        assert np.linalg.matrix_rank(z6) == 6

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateError):
            spline_basis(np.ones(50), 2)

    def test_too_few_distinct_values(self):
        x = np.repeat([0.0, 0.3, 0.6, 1.0], 10)
        with pytest.raises(DegenerateError):
            spline_basis(x, 4)  # needs K + 2 = 6 distinct

    @staticmethod
    def scipy_columns(t, knots):
        """SciPy's B-splines one column at a time: the test-only oracle."""
        from scipy.interpolate import BSpline

        eye = np.eye(knots.size - 4)
        return np.column_stack([BSpline(knots, e, 3, extrapolate=True)(t) for e in eye])

    @pytest.mark.parametrize("K", [2, 3, 5, 6])
    def test_one_call_design_matches_per_column_splines(self, K):
        # spline_basis rescales its predictor onto [0, 1], endpoints included
        t = np.concatenate(([0.0, 1.0], np.random.default_rng(K).random(1998)))
        knots = _bspline_knots(t, K)
        assert np.array_equal(_bspline_design(t, knots), self.scipy_columns(t, knots))

    @pytest.mark.parametrize("t, K", [
        (np.linspace(0.0, 1.0, 11), 3),  # the interior knot 0.5 is a data point
        (np.repeat(np.linspace(0.0, 1.0, 9), 5), 4),  # ties
        (np.array([0.0, 0.2, 0.7, 1.0]), 2),  # no interior knot
        (np.concatenate(([0.0, 1.0], 0.5 + 1e-9 * np.arange(30))), 6),  # clustered
    ])
    def test_design_edge_cases_match_scipy(self, t, K):
        knots = _bspline_knots(t, K)
        design = _bspline_design(t, knots)
        assert np.array_equal(design, self.scipy_columns(t, knots))
        # a partition of unity; t = 0 and t = 1 take the end functions' value 1
        assert np.allclose(design.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.all(design[t == 0.0, 0] == 1.0) and np.all(design[t == 1.0, -1] == 1.0)

    @staticmethod
    def lstsq_basis(x, K):
        """The basis as least-squares residuals on [1, t], then the SVD, then
        a second least-squares strip: the test-only form the projection
        replaced."""
        lo, hi = x.min(), x.max()
        t = (x - lo) / (hi - lo)
        b = _bspline_design(t, _bspline_knots(np.unique(t), K))
        g = np.column_stack([np.ones_like(t), t])
        u_mat, s, _ = np.linalg.svd(b - g @ np.linalg.lstsq(g, b, rcond=None)[0],
                                    full_matrices=False)
        if s[K - 1] <= 1e-10 * s[0]:
            raise DegenerateError("rank deficient")
        z = u_mat[:, :K] - g @ np.linalg.lstsq(g, u_mat[:, :K], rcond=None)[0]
        return z / np.linalg.norm(z, axis=0)

    @pytest.mark.parametrize("x, K", [
        *((np.concatenate(([0.0, 1.0], np.random.default_rng(K).random(1998))), K)
          for K in (2, 3, 5, 6)),
        (np.linspace(0.0, 1.0, 11), 3),
        (np.repeat(np.linspace(0.0, 1.0, 9), 5), 4),
        (np.array([0.0, 0.2, 0.7, 1.0]), 2),
        (np.concatenate(([0.0, 1.0], 0.5 + 1e-9 * np.arange(30))), 6),
    ])
    def test_projection_matches_lstsq_basis(self, x, K):
        try:
            want = self.lstsq_basis(x, K)
        except DegenerateError:
            with pytest.raises(DegenerateError):
                spline_basis(x, K)
            return
        got = spline_basis(x, K)
        # column by column, sign included
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_or_overflowing_predictor_rejected(self, bad):
        x = np.random.default_rng(3).random(50)
        x[7] = bad
        x[8] = -1e308  # with 1e308, finite values whose range overflows
        with pytest.raises(DomainError):
            spline_basis(x, 4)


class TestGibbsSampler:
    def test_conjugate_oracle_fixed_scales(self):
        # with all scales frozen, coefficient draws are exact posterior
        # samples; the chain mean must match the closed-form Normal mean
        spec = small_spec(d_lin=1, d_nl=0, basis_size=(), hyper=Hyper(intercept_sd=10.0))
        data = generate_data(spec, 1.0, 21, truth=("linear",))
        fixed = {"lambda_beta": [0.8], "sigma_beta": 1.3, "sigma_eps": 0.9}
        chain = gibbs_sampler(data, spec, iters=4000, burn=0, seed=5, fixed_scales=fixed)
        c, _, _ = build_design(data, spec)
        prec = np.diag([10.0**-2, 1.0 / (1.3**2 * 0.8**2)])
        q = c.T @ c / 0.9**2 + prec
        mu = np.linalg.solve(q, c.T @ data.y / 0.9**2)
        cov = np.linalg.inv(q)
        draws = np.column_stack([chain.beta0, chain.beta[:, 0]])
        z = (draws.mean(axis=0) - mu) / (np.sqrt(np.diag(cov)) / math.sqrt(len(chain)))
        assert np.max(np.abs(z)) < 3.0
        sd_ratio = draws.std(axis=0) / np.sqrt(np.diag(cov))
        assert np.max(np.abs(sd_ratio - 1.0)) < 0.1

    def test_successive_conditional_prior_recovery(self):
        # parameters -> data -> parameters leaves the prior invariant; the
        # prior CDF transform of each half-Cauchy scale must look uniform
        spec = AdditiveModelSpec(
            n=10, d_lin=1, d_nl=1, basis_size=2, hyper=Hyper(intercept_sd=1.0)
        )
        data = generate_data(spec, 1.0, 3, truth=("linear", "zero"))
        chain = gibbs_sampler(
            data, spec, iters=60_000, burn=5_000, seed=77, resample_response=True
        )

        def check_uniform(vals, label):
            u = (2.0 / math.pi) * np.arctan(vals)
            x = u - u.mean()
            denom = float(x @ x)
            tau = 1.0
            for lag in range(1, 300):
                rho = float(x[:-lag] @ x[lag:]) / denom
                if rho < 0.01:
                    break
                tau += 2.0 * rho
            se = u.std() * math.sqrt(tau / u.size)
            assert abs(u.mean() - 0.5) < 4.0 * se, label
            for q in (0.25, 0.5, 0.75):
                assert abs(np.quantile(u, q) - q) < 0.04, (label, q)

        check_uniform(chain.lambda_beta[:, 0], "lambda_beta_1")
        check_uniform(chain.lambda_u[:, 0], "lambda_u_1")
        check_uniform(chain.sigma_eps, "sigma_eps")

    def test_identical_chains_for_fixed_seed(self):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        a = gibbs_sampler(data, spec, iters=60, burn=10, seed=5)
        b = gibbs_sampler(data, spec, iters=60, burn=10, seed=5)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.sigma_eps, b.sigma_eps)
        assert np.array_equal(a.u, b.u)

    def test_scale_draws_positive_and_rectangular(self):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        chain = gibbs_sampler(data, spec, iters=40, burn=5, seed=2)
        assert len(chain) == 35
        for arr in (chain.lambda_beta, chain.lambda_u, chain.sigma_u):
            assert np.all(arr > 0)
        assert chain.sigma_beta.shape == (35,)
        assert chain.beta.shape == (35, 3)

    def test_invalid_iteration_counts(self):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        with pytest.raises(ConfigError):
            gibbs_sampler(data, spec, iters=10, burn=10, seed=1)

    def test_non_integer_iteration_counts(self):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        with pytest.raises(ConfigError):
            gibbs_sampler(data, spec, iters=20.5, burn=5, seed=1)
        with pytest.raises(ConfigError):
            gibbs_sampler(data, spec, iters=20, burn=5.0, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_response_rejected(self, bad):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        data.y[3] = bad
        with pytest.raises(DomainError):
            gibbs_sampler(data, spec, iters=20, burn=5, seed=1)

    @pytest.mark.parametrize("column", [0, 2])  # a linear-only and a spline candidate
    def test_non_finite_predictor_rejected(self, column):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        data.x[4, column] = math.inf
        with pytest.raises(DomainError):
            build_design(data, spec)

    def test_noiseless_data_stays_finite(self):
        spec = small_spec(n=100, d_lin=1, d_nl=1, basis_size=3)
        data = generate_data(spec, 0.0, 5, truth=("linear", "non-linear"))
        chain = gibbs_sampler(data, spec, iters=300, burn=50, seed=6)
        assert np.all(np.isfinite(chain.sigma_eps)) and np.all(chain.sigma_eps > 0)
        rep = gamma_statistics(chain)
        assert all(np.isfinite(g) for g in rep.gamma_beta)

    def test_deep_shrinkage_regime_clean(self):
        # pure-noise data drives scale products toward the denormal range;
        # the sampler must not emit overflow warnings or non-finite draws
        import warnings

        spec = small_spec(n=400, d_lin=3, d_nl=2, basis_size=4)
        data = generate_data(spec, 4.0, 8, truth=("zero",) * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = gibbs_sampler(data, spec, iters=3000, burn=100, seed=9)
        rep = gamma_statistics(chain)
        assert max(rep.gamma_beta) < 0.5
        assert all(g is None or g < 0.5 for g in rep.gamma_u)

    def test_deep_shrinkage_reaches_floors(self):
        # tiny half-Cauchy hyperscales push the scale products below the
        # representable range: clips and variance floors must both run and
        # every draw must stay finite, without any floating-point warning
        import warnings

        spec = small_spec(
            n=400, d_lin=3, d_nl=2, basis_size=4, hyper=Hyper(s_beta=1e-150, s_u=1e-150)
        )
        data = generate_data(spec, 4.0, 8, truth=("zero",) * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = gibbs_sampler(data, spec, iters=3000, burn=100, seed=9)
        assert chain.diagnostics["inv_gamma_clipped"] > 0
        assert chain.diagnostics["var_floor_hits"] > 0
        for arr in (chain.beta0, chain.beta, chain.u, chain.lambda_beta, chain.lambda_u,
                    chain.sigma_beta, chain.sigma_u, chain.sigma_eps):
            assert np.all(np.isfinite(arr))

    def test_local_scales_drawn_independently(self):
        # under the successive-conditional simulator the linear local scales
        # are a priori independent half-Cauchy draws; one gamma variate
        # shared across lambda_beta would correlate them at about 0.5
        spec = AdditiveModelSpec(n=10, d_lin=3, d_nl=0, basis_size=(), hyper=Hyper(intercept_sd=1.0))
        data = generate_data(spec, 1.0, 3, truth=("linear", "zero", "zero"))
        chain = gibbs_sampler(
            data, spec, iters=21_000, burn=1_000, seed=78, resample_response=True
        )
        r = np.corrcoef((2.0 / math.pi) * np.arctan(chain.lambda_beta), rowvar=False)
        assert np.max(np.abs(r[np.triu_indices(3, 1)])) < 0.1

    def test_inv_gamma_one_variate_per_element(self):
        gamma = np.random.default_rng(0).standard_gamma(np.ones(5))
        draws = _inv_gamma(np.ones(5), gamma)
        assert draws.shape == (5,) and np.unique(draws).size == 5

    def test_inv_gamma_clips_like_np_clip(self):
        scale = np.array([0.0, 1e-320, 1e-290, 1.0, 1e250, 1e308, 3.0])
        gamma = np.random.default_rng(6).standard_gamma(0.5, scale.shape)
        want = np.clip(np.maximum(scale, 1e-300) / gamma, 1e-300, 1e300)
        assert np.array_equal(_inv_gamma(scale.copy(), gamma), want)

    def test_diagnostics_deterministic_counts(self):
        spec = small_spec(n=400, d_lin=3, d_nl=2, basis_size=4)
        data = generate_data(spec, 4.0, 8, truth=("zero",) * 5)
        a = gibbs_sampler(data, spec, iters=3000, burn=100, seed=9).diagnostics
        b = gibbs_sampler(data, spec, iters=3000, burn=100, seed=9).diagnostics
        assert set(a) == {"inv_gamma_clipped", "var_floor_hits", "sig2_e_floor_hits"}
        assert all(type(v) is int and v >= 0 for v in a.values())
        assert a == b
        # prior variances frozen far below the floor are counted every sweep
        fixed = {"lambda_beta": [1e-160] * 5, "sigma_beta": 1e-160, "sigma_eps": 4.0}
        chain = gibbs_sampler(data, spec, iters=50, burn=0, seed=9, fixed_scales=fixed)
        assert chain.diagnostics["var_floor_hits"] == 50 * 5

    def test_uneven_basis_sizes(self):
        spec = small_spec(n=200, d_lin=1, d_nl=3, basis_size=(2, 5, 3))
        data = generate_data(spec, 0.5, 4)
        chain = gibbs_sampler(data, spec, iters=200, burn=50, seed=1)
        assert [b.stop - b.start for b in chain.u_blocks] == [2, 5, 3]
        assert chain.u.shape == (150, 10) and chain.lambda_u.shape == (150, 3)
        assert np.all(np.isfinite(chain.u)) and np.all(chain.sigma_u > 0)


class CheckedResidualSS(_ResidualSS):
    """Records every response set, and every rss next to the direct
    ||y - C coef||^2."""

    pairs, responses = [], []

    def __init__(self, c, ctc):
        super().__init__(c, ctc)
        self.c = c

    def set_response(self, y, cty):
        super().set_response(y, cty)
        self.y = np.array(y)
        self.responses.append(self.y)

    def __call__(self, coef):
        rss = super().__call__(coef)
        r = self.y - self.c @ coef
        self.pairs.append((rss, float(r @ r)))
        return rss


class TestResidualSS:
    def run_checked(self, monkeypatch, data, spec, **kw):
        CheckedResidualSS.pairs, CheckedResidualSS.responses = [], []
        monkeypatch.setattr(gamsel, "_ResidualSS", CheckedResidualSS)
        gibbs_sampler(data, spec, seed=3, **kw)
        got, direct = np.array(CheckedResidualSS.pairs).T
        assert got.size == kw["iters"]
        np.testing.assert_allclose(got, direct, rtol=1e-10, atol=0)
        return CheckedResidualSS.responses

    def test_matches_direct_residual(self, monkeypatch):
        spec = small_spec(n=300, d_lin=2, d_nl=3, basis_size=5)
        data = generate_data(spec, 0.7, 12)
        assert len(self.run_checked(monkeypatch, data, spec, iters=200, burn=0)) == 1

    def test_matches_direct_residual_singular_gram(self, monkeypatch):
        # n <= q: C'C is singular and the factor comes from the SVD of C
        with pytest.warns(UserWarning):
            spec = small_spec(n=12, d_lin=2, d_nl=2, basis_size=4)
        data = generate_data(spec, 0.7, 12)
        c, _, _ = build_design(data, spec)
        assert np.linalg.matrix_rank(c.T @ c) < c.shape[1]
        self.run_checked(monkeypatch, data, spec, iters=200, burn=0)

    def test_matches_direct_residual_resampled_response(self, monkeypatch):
        spec = AdditiveModelSpec(n=10, d_lin=1, d_nl=1, basis_size=2, hyper=Hyper(intercept_sd=1.0))
        data = generate_data(spec, 1.0, 3, truth=("linear", "zero"))
        responses = self.run_checked(
            monkeypatch, data, spec, iters=500, burn=0, resample_response=True
        )
        # one update per redrawn response: every sweep's rss uses the current y
        assert len(responses) == 501 and np.array_equal(responses[0], data.y)
        assert all(not np.array_equal(a, b) for a, b in zip(responses, responses[1:]))

    @pytest.mark.parametrize("spread", [1.0, 1e-7, 0.0])
    def test_any_coefficients_near_collinear_design(self, spread):
        # the second and third columns differ by `spread`: the least-squares
        # coefficients reach ~1e7 at 1e-7 and the Gram matrix is singular at 0,
        # while the coefficients evaluated stay of order one
        rng = np.random.default_rng(0)
        a = rng.standard_normal(200)
        c = np.column_stack([np.ones(200), a, a + spread * rng.standard_normal(200),
                             rng.standard_normal(200)])
        y = c @ [1.0, 2.0, -1.0, 0.5] + 0.3 * rng.standard_normal(200)
        rss = _ResidualSS(c, c.T @ c)
        rss.set_response(y, c.T @ y)
        for scale in (1e-3, 1.0, 1e3):
            coef = scale * rng.standard_normal(4)
            r = y - c @ coef
            assert rss(coef) == pytest.approx(float(r @ r), rel=1e-10)


def random_spd(q, seed):
    a = np.random.default_rng(seed).standard_normal((q, q))
    return np.asfortranarray(a @ a.T / q + np.eye(q))


class TestDrawCoefficients:
    def test_matches_scipy_wrappers_bit_for_bit(self):
        from scipy.linalg import cho_factor, solve_triangular

        q_mat = random_spd(151, 1)
        rng = np.random.default_rng(2)
        rhs, z = rng.standard_normal(151), rng.standard_normal(151)
        chol = cho_factor(q_mat, lower=True, check_finite=False)[0]
        w = solve_triangular(chol, rhs, lower=True) + z
        want = solve_triangular(chol, w, lower=True, trans="T")
        got = _draw_coefficients(q_mat.copy(order="F"), rhs.copy(), z.copy())
        assert np.array_equal(got, want)

    def test_is_mean_plus_correlated_noise(self):
        # Q^-1 rhs + L^-T z, the draw's definition, at the paper's q = 151,
        # normwise: the mean and the noise cancel in some entries
        from scipy.linalg import solve_triangular

        q_mat = random_spd(151, 6)
        rng = np.random.default_rng(7)
        rhs, z = rng.standard_normal(151), rng.standard_normal(151)
        chol = np.linalg.cholesky(q_mat)
        want = np.linalg.solve(q_mat, rhs) + solve_triangular(chol, z, lower=True, trans="T")
        got = _draw_coefficients(q_mat.copy(order="F"), rhs.copy(), z.copy())
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_overwrites_its_buffers(self):
        q_mat = random_spd(20, 3)
        rhs, z = np.ones(20), np.ones(20)
        assert _draw_coefficients(q_mat, rhs, z) is rhs
        # the lower triangle now holds L with LL' = Q
        np.testing.assert_allclose(np.tril(q_mat) @ np.tril(q_mat).T, random_spd(20, 3))

    def test_not_positive_definite(self):
        q_mat = random_spd(151, 4)
        q_mat[75, 75] = -1.0
        with pytest.raises(NumericalError, match="info 76"):
            _draw_coefficients(q_mat, np.ones(151), np.ones(151))

    @pytest.mark.parametrize("where", [(0, 0), (150, 0), (150, 150), (80, 40)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry(self, where, value):
        # the LAPACK in use may factorize NaN without reporting it
        q_mat = random_spd(151, 5)
        q_mat[where] = q_mat[where[::-1]] = value
        with pytest.raises(NumericalError):
            _draw_coefficients(q_mat, np.ones(151), np.ones(151))

    def test_sweep_raises_on_failed_factorization(self, monkeypatch):
        def failing_dpotrf(a, **kw):
            return a, 3

        monkeypatch.setattr(gamsel, "dpotrf", failing_dpotrf)
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        with pytest.raises(NumericalError, match="iteration 0"):
            gibbs_sampler(data, spec, iters=5, burn=0, seed=1)


def synthetic_chain(lam_b, lam_u, sig_b, sig_u, sig_e, spec):
    m = len(sig_e)
    return GibbsChain(
        beta0=np.zeros(m),
        beta=np.zeros((m, spec.p)),
        u=np.zeros((m, sum(spec.basis_sizes))),
        u_blocks=[slice(0, k) for k in spec.basis_sizes],
        lambda_beta=np.asarray(lam_b),
        lambda_u=np.asarray(lam_u),
        sigma_beta=np.asarray(sig_b),
        sigma_u=np.asarray(sig_u),
        sigma_eps=np.asarray(sig_e),
        spec=spec,
    )


class TestGammaStatistics:
    def test_vanishing_scales_give_zero(self):
        spec = small_spec(d_lin=1, d_nl=1, basis_size=3)
        m = 50
        chain = synthetic_chain(
            np.full((m, 2), 1e-9),
            np.full((m, 1), 1e-9),
            np.ones(m),
            np.ones((m, 1)),
            np.ones(m),
            spec,
        )
        rep = gamma_statistics(chain)
        assert all(g < 1e-12 for g in rep.gamma_beta)
        assert rep.gamma_u[0] is None and rep.gamma_u[1] < 1e-12

    def test_balanced_scales_give_exactly_half(self):
        spec = small_spec(d_lin=1, d_nl=1, basis_size=3)
        m = 10
        chain = synthetic_chain(
            np.full((m, 2), 2.0),
            np.full((m, 1), 2.0),
            np.full(m, 0.5),
            np.full((m, 1), 0.5),
            np.ones(m),
            spec,
        )
        rep = gamma_statistics(chain)
        assert rep.gamma_beta[0] == pytest.approx(0.5, abs=1e-15)
        assert rep.gamma_u[1] == pytest.approx(0.5, abs=1e-15)

    def test_statistics_in_unit_interval_on_real_chain(self):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        chain = gibbs_sampler(data, spec, iters=80, burn=20, seed=3)
        rep = gamma_statistics(chain)
        assert all(0.0 < g < 1.0 for g in rep.gamma_beta)
        assert all(g is None or 0.0 < g < 1.0 for g in rep.gamma_u)

    def test_matches_per_block_loop(self):
        # one np.mean per block's column, the form the rows replaced
        spec = small_spec(d_lin=2, d_nl=3)
        data = generate_data(spec, 0.5, 9)
        chain = gibbs_sampler(data, spec, iters=300, burn=20, seed=3)
        rep = gamma_statistics(chain)
        se2 = chain.sigma_eps**2
        for j in range(spec.p):
            v = chain.lambda_beta[:, j] ** 2 * chain.sigma_beta**2
            assert rep.gamma_beta[j] == float(np.mean(v / (se2 + v)))
        for i in range(spec.d_nl):
            v = chain.lambda_u[:, i] ** 2 * chain.sigma_u[:, i] ** 2
            assert rep.gamma_u[spec.d_lin + i] == float(np.mean(v / (se2 + v)))

    def test_thinning_invariance_in_expectation(self):
        spec = small_spec(n=400)
        data = generate_data(spec, 0.5, 10)
        chain = gibbs_sampler(data, spec, iters=2200, burn=200, seed=4)
        v = chain.lambda_u[:, 0] ** 2 * chain.sigma_u[:, 0] ** 2
        gam = v / (chain.sigma_eps**2 + v)
        full, thin = gam.mean(), gam[::5].mean()
        nb = 25
        bs = gam.size // nb
        mcse = gam[: nb * bs].reshape(nb, bs).mean(axis=1).std(ddof=1) / math.sqrt(nb)
        assert abs(full - thin) < 3.0 * mcse


class TestClassify:
    def test_rule_examples(self):
        rep = ThresholdReport(gamma_beta=[0.9, 0.3, 0.3], gamma_u=[0.3, 0.3, 0.7])
        assert classify(rep, 0.5) == ["linear", "zero", "non-linear"]

    def test_no_block_degenerates_to_zero_vs_linear(self):
        rep = ThresholdReport(gamma_beta=[0.9, 0.2], gamma_u=[None, None])
        assert classify(rep, 0.5) == ["linear", "zero"]

    def test_boundary_is_inclusive_zero(self):
        rep = ThresholdReport(gamma_beta=[0.5], gamma_u=[0.5])
        assert classify(rep, 0.5) == ["zero"]

    @given(
        gb=st.floats(0.0, 1.0),
        gu=st.floats(0.0, 1.0),
        b1=st.floats(0.0, 1.0),
        b2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_border(self, gb, gu, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        rep = ThresholdReport(gamma_beta=[gb], gamma_u=[gu])
        l_lo = classify(rep, lo)[0]
        l_hi = classify(rep, hi)[0]
        assert LABEL_ORDER[l_hi] <= LABEL_ORDER[l_lo]


class TestKmeansThreshold:
    def test_symmetric_pairs(self):
        assert kmeans_threshold([0.1, 0.2, 0.8, 0.9]) == pytest.approx(0.5)

    def test_two_points(self):
        assert kmeans_threshold([0.2, 0.6]) == pytest.approx(0.4)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateError):
            kmeans_threshold([0.3, 0.3, 0.3])
        with pytest.raises(DegenerateError):
            kmeans_threshold([0.3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError):
            kmeans_threshold([0.1, bad, 0.9])

    def test_cluster_structure_like_study_values(self):
        # mid-range statistics for linear effects, near-one for non-linear:
        # the split lands between the clusters and beats the fixed 1/2 border
        vals = [0.45, 0.52, 0.61, 0.66, 0.74, 0.97, 0.98, 0.99, 1.0]
        border = kmeans_threshold(vals)
        assert 0.74 < border < 0.97
        truth = ["linear"] * 5 + ["non-linear"] * 4
        at_half = ["non-linear" if v > 0.5 else "linear" for v in vals]
        at_border = ["non-linear" if v > border else "linear" for v in vals]
        errs = lambda labs: sum(1 for a, b in zip(labs, truth) if a != b)
        assert errs(at_border) < errs(at_half)

    @staticmethod
    def brute_force_border(vals):
        vals = np.sort(np.asarray(vals, dtype=float))
        best = (math.inf, None)
        for k in range(1, vals.size):
            left, right = vals[:k], vals[k:]
            w = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if w < best[0] - 1e-15:
                best = (w, 0.5 * (left.mean() + right.mean()))
        return best[1]

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=64)
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_split(self, vals):
        if np.unique(vals).size < 2:
            with pytest.raises(DegenerateError):
                kmeans_threshold(vals)
            return
        assert kmeans_threshold(vals) == pytest.approx(
            self.brute_force_border(vals), abs=1e-12
        )


class TestMisclassification:
    def test_paper_style_counts(self):
        labels = ["zero"] * 108 + ["linear"] * 12
        truth = ["zero"] * 120
        m = misclassification_rate(labels, truth)
        assert (m.count, m.total) == (12, 120)
        assert m.percent == pytest.approx(10.0)
        labels = ["zero"] * 73 + ["linear"] * 47
        m = misclassification_rate(labels, ["zero"] * 120)
        assert m.percent == pytest.approx(39.2, abs=0.05)

    def test_identical_is_zero(self):
        m = misclassification_rate(["a", "b"], ["a", "b"])
        assert m.count == 0 and m.rate == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthError):
            misclassification_rate(["a"], ["a", "b"])


class TestExports:
    def test_chain_csv_schema_and_roundtrip(self, tmp_path):
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        chain = gibbs_sampler(data, spec, iters=30, burn=10, seed=3)
        path = tmp_path / "chain.csv"
        chain_to_csv(chain, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        q = 1 + 3 + 8  # beta0 + betas + spline coefficients
        scales = 3 + 2 + 1 + 2 + 1
        assert len(header) == q + scales
        assert header[0] == "beta0" and header[-1] == "sigma_eps"
        assert len(body) == 20
        back = np.array([[float(v) for v in row] for row in body])
        assert back[:, 0] == pytest.approx(chain.beta0)

    def test_chain_csv_failing_part_way_leaves_no_file(self, tmp_path):
        # a chain whose u draws stop short used to leave a truncated CSV
        spec = small_spec()
        data = generate_data(spec, 0.5, 9)
        chain = gibbs_sampler(data, spec, iters=30, burn=10, seed=3)
        chain.u = chain.u[:5]
        path = tmp_path / "chain.csv"
        with pytest.raises((IndexError, ValueError)):
            chain_to_csv(chain, path)
        assert list(tmp_path.iterdir()) == []

    def test_csv_row_failing_part_way_leaves_no_file(self, tmp_path):
        def rows():
            yield [1, 0.5, None]
            raise RuntimeError("row 2")

        path = tmp_path / "table.csv"
        with pytest.raises(RuntimeError, match="row 2"):
            write_csv(path, "a,b,c", rows())
        assert list(tmp_path.iterdir()) == []
        write_csv(path, "a,b,c", [[1, 0.5, None], ["x", np.float64(0.1), 2]])
        assert path.read_text() == "a,b,c\n1,0.5,\nx,0.1,2\n"


class TestDeskScaleSanity:
    def test_six_predictor_fixture(self):
        # 2 zero / 2 linear / 2 non-linear at n = 2000, sigma_eps = 0.25:
        # non-linear blocks must clear the 1/2 border, zero candidates must
        # stay at or below it; linear candidates' block statistics land in
        # the ambiguous mid range, which is what the data-driven border fixes
        spec = AdditiveModelSpec(n=2000, d_lin=2, d_nl=4, basis_size=6)
        truth = ("zero", "zero", "linear", "linear", "non-linear", "non-linear")
        data = generate_data(spec, 0.25, 31, truth=truth)
        chain = gibbs_sampler(data, spec, iters=1200, burn=300, seed=32)
        rep = gamma_statistics(chain)
        assert max(rep.gamma_beta[0], rep.gamma_beta[1]) <= 0.5
        assert rep.gamma_u[4] > 0.5 and rep.gamma_u[5] > 0.5
        assert rep.gamma_u[4] > 0.9  # strong non-linear signal
