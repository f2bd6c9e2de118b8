"""Distribution tests: closed-form density vs the mixture-integral oracle,
normalization, pole behavior, scale family, spherical symmetry, and the
scale-mixture sampler (marginal and radial agreement with the ball-mass CDFs).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from ghs import distribution
from ghs.distribution import (
    GhsDistribution,
    density,
    density_quadrature_oracle,
    log_density,
    radial_log_density,
    sample_arrays,
)
from ghs.errors import DimensionError, DomainError
from ghs.risk import _ball_masses, origin_ball_mass
from ghs.rng import make_rng, split_seed
from oracles import normalization_integral

# Frozen from density_quadrature_oracle(2, (1, 1)).
DENSITY_D2_AT_ONES = 0.021741521332476726


def unit_vector(d, r, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    return r * v / np.linalg.norm(v)


class TestDensity:
    def test_univariate_closed_form_value(self):
        # p(x) = (2 pi^3)^(-1/2) e^(x^2/2) E_1(x^2/2) at x = 1
        from ghs.specfun import gen_exp_integral

        expected = (2.0 * math.pi**3) ** -0.5 * math.e**0.5 * gen_exp_integral(1, 0.5)
        assert density(GhsDistribution(1), [1.0]) == pytest.approx(expected, rel=1e-12)

    def test_bivariate_against_mixture_oracle(self):
        assert density(GhsDistribution(2), [1.0, 1.0]) == pytest.approx(
            DENSITY_D2_AT_ONES, rel=1e-10
        )

    def test_closed_form_equals_oracle_on_grid(self):
        for d in [1, 2, 3, 5, 10]:
            for r in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
                x = unit_vector(d, r, seed=d)
                assert density(GhsDistribution(d), x) == pytest.approx(
                    density_quadrature_oracle(d, x), rel=1e-8
                ), (d, r)

    def test_pole_at_origin(self):
        for d in [1, 2, 5]:
            assert log_density(GhsDistribution(d), np.zeros(d)) == math.inf

    def test_pole_rate_constant(self):
        # density * r^(d-1) -> K_d * 2/(d-1) as r -> 0, for d >= 2
        for d in [2, 3, 5]:
            k_d = math.exp(
                sp.gammaln(0.5 * (d + 1))
                - 0.5 * (math.log(2.0) + (d + 2) * math.log(math.pi))
            )
            val = math.exp(radial_log_density(d, 1e-4)) * (1e-4) ** (d - 1)
            assert val == pytest.approx(k_d * 2.0 / (d - 1), rel=1e-2)

    def test_monotone_increase_toward_origin(self):
        for d in [1, 2, 3]:
            vals = [radial_log_density(d, r) for r in [1.0, 0.1, 0.01, 0.001]]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_scale_family_exact(self):
        dist = GhsDistribution(3, 2.5)
        x = np.array([0.3, -1.2, 0.7])
        expected = log_density(GhsDistribution(3), x / 2.5) - 3 * math.log(2.5)
        assert log_density(dist, x) == expected

    def test_spherical_symmetry_under_rotation(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        dist = GhsDistribution(4)
        assert log_density(dist, q @ x) == pytest.approx(
            log_density(dist, x), rel=1e-14
        )

    def test_near_pole_oracle_agreement(self):
        x = unit_vector(2, 0.01, seed=9)
        assert density(GhsDistribution(2), x) == pytest.approx(
            density_quadrature_oracle(2, x), rel=1e-7
        )

    def test_mid_radius_five_dimensional_point(self):
        x = unit_vector(5, 3.0, seed=55)
        assert density(GhsDistribution(5), x) == pytest.approx(
            density_quadrature_oracle(5, x), rel=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            log_density(GhsDistribution(3), [1.0, 2.0])

    def test_invalid_parameters(self):
        for d in (0, 2.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                GhsDistribution(d)
        for sigma in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                log_density(GhsDistribution(2, sigma), [1.0, 1.0])
            with pytest.raises(DomainError):
                sample_arrays(GhsDistribution(2, sigma), 5, seed=1)

    def test_oracle_rejects_origin(self):
        with pytest.raises(DomainError):
            density_quadrature_oracle(2, np.zeros(2))


def mpmath_log_density(d, r, sigma_theta=1.0):
    """log p at radius r from exp(u) E_nu(u), u = (r/sigma_theta)^2/2, at 30 digits."""
    with mp.workdps(30):
        s = mp.mpf(sigma_theta)
        r = mp.mpf(r) / s
        u, nu = r * r / 2, mp.mpf(d + 1) / 2
        log_k = mp.loggamma(nu) - (mp.log(2) + (d + 2) * mp.log(mp.pi)) / 2
        log_e = mp.log(mp.exp(u) * mp.expint(nu, u))  # a product: no digits cancel
        return float(log_k + log_e - (d - 1) * mp.log(r) - d * mp.log(s))


class TestDomainEdges:
    RADII = [1e-300, 1e-160, 1e-3, 1.0, 1e3, 1e154, 1e200]

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 100])
    def test_radial_against_mpmath(self, d):
        # covers u underflowing (d = 1 needs the -gamma - log u form), the
        # series, the continued fraction and u overflowing (the 1/u tail)
        got = radial_log_density(d, np.array(self.RADII + [math.inf]))
        expected = [mpmath_log_density(d, r) for r in self.RADII]
        assert got[:-1] == pytest.approx(expected, rel=1e-13)
        assert got[-1] == -math.inf

    @pytest.mark.parametrize("d, r, sigma_theta", [
        (3, 1.0, 1e-320), (1, 1.0, 1e-320), (3, 1e-30, 1e300), (2, 1e-30, 1e300),
        (1, 1e-30, 1e300), (2, 0.5, 5e-324), (3, 1e-300, 1e10),
    ])
    def test_radius_over_scale_past_the_normal_range_against_mpmath(self, d, r, sigma_theta):
        # -inf or +inf, with a RuntimeWarning, before: r/sigma_theta overflowed or left
        # the normal range, so its log is now log r - log sigma_theta
        expected = mpmath_log_density(d, r, sigma_theta)
        assert radial_log_density(d, r, sigma_theta) == pytest.approx(expected, rel=1e-13)
        got = radial_log_density(d, np.array([0.0, r, math.inf]), sigma_theta)
        assert got.tolist() == [math.inf, pytest.approx(expected, rel=1e-13), -math.inf]

    def test_array_entries_match_scalar_calls(self):
        radii = np.array([0.0, 1e-170, 0.3, 1.0, 1.5, 40.0, 1e160, math.inf])
        for d in [1, 2, 5]:
            got = radial_log_density(d, radii, 2.0)
            assert got.tolist() == [radial_log_density(d, float(r), 2.0) for r in radii]
            assert got[0] == math.inf and got[-1] == -math.inf

    @pytest.mark.parametrize("d, sigma_theta", [(1, 1.0), (2, 1.0), (3, 1.0), (3, 2.5)])
    def test_repeated_radii_match_one_by_one(self, d, sigma_theta, monkeypatch):
        # a grid symmetric about the origin repeats each radius; the kernel
        # runs once per distinct u, and the values are those of single calls
        axis = np.arange(-4, 5) * 0.3
        grid = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
        extra = [0.0, 1e-12, 1e-12, 1e-300, 1.0, math.inf, math.inf]  # 1e-12: d = 1's small-u form
        radii = np.concatenate([np.linalg.norm(grid, axis=1), extra])
        one_by_one = [radial_log_density(d, float(r), sigma_theta) for r in radii]

        sizes = []
        kernel = distribution.exp_scaled_expint

        def counted(nu, x):
            sizes.append(np.size(x))
            return kernel(nu, x)

        monkeypatch.setattr(distribution, "exp_scaled_expint", counted)
        got = radial_log_density(d, radii, sigma_theta)
        assert np.array_equal(got, one_by_one)
        u = 0.5 * (radii / sigma_theta) ** 2
        mid = np.isfinite(u) & (u >= 1e-20 if d == 1 else True)
        assert sizes == [np.unique(u[mid]).size] and sizes[0] < mid.sum()

    def test_nan_and_negative_rejected_at_entry(self):
        for r in (math.nan, -1.0, [1.0, math.nan]):
            with pytest.raises(DomainError):
                radial_log_density(2, r)
        with pytest.raises(DomainError):
            log_density(GhsDistribution(2), [math.nan, 1.0])

    def test_point_stack_matches_single_points(self):
        dist = GhsDistribution(3, 1.5)
        pts = np.random.default_rng(4).standard_normal((50, 3))
        pts[0] = 0.0
        stacked = log_density(dist, pts)
        assert stacked.shape == (50,) and stacked[0] == math.inf
        single = [log_density(dist, x) for x in pts]
        assert stacked[1:] == pytest.approx(single[1:], rel=1e-14)
        assert density(dist, pts)[1:] == pytest.approx(np.exp(single[1:]), rel=1e-14)
        with pytest.raises(DimensionError):
            log_density(dist, pts[:, :2])

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 100])
    def test_point_and_its_stack_row_agree_bit_for_bit(self, d):
        # one point's norm was BLAS ddot's (fused multiply-adds), a stack's a
        # row reduction: 101 of 2,000 normal points differed at d = 2; now both
        # sum the squares left to right, also where hypot recomputes a row
        dist = GhsDistribution(d)
        pts = np.random.default_rng(d).standard_normal((300, d))
        pts[1] *= 1e-160
        pts[2] *= 1e160
        if d == 2:
            pts[0] = [-0.33129089269991674, -0.8404731684222111]
        stacked = log_density(dist, pts)
        assert [log_density(dist, x) for x in pts] == stacked.tolist()
        if d == 2:
            assert stacked[0] == -2.9396119745566436

    def test_points_whose_squared_norm_leaves_the_float_range(self):
        # ||x||^2 underflows below ~1.5e-154 (to 0 below ~1.5e-162) and
        # overflows above ~1.3e154; the density must still be that of ||x||
        import warnings

        dist = GhsDistribution(3)
        extreme = np.array([
            [1e-170, 0.0, 0.0],
            [1e160, 0.0, 0.0],
            [1e-160, -1e-160, 1e-160],
            [3e-300, 4e-300, 0.0],
            [-1e200, 1e200, 1e200],
            [0.0, 0.0, 0.0],
            [math.inf, 1.0, 0.0],
        ])
        radii = [1e-170, 1e160, math.sqrt(3.0) * 1e-160, 5e-300, math.sqrt(3.0) * 1e200,
                 0.0, math.inf]
        expected = radial_log_density(3, np.array(radii))
        assert expected[0] == pytest.approx(779.6705333130722, rel=1e-14)
        assert expected[1] == pytest.approx(-1476.1697106405327, rel=1e-14)
        ordinary = np.random.default_rng(5).standard_normal((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, e in zip(extreme, expected):
                assert log_density(dist, x) == pytest.approx(e, rel=1e-15)
            stacked = log_density(dist, np.vstack([ordinary, extreme]))
        assert stacked[4:] == pytest.approx(expected, rel=1e-15)
        # ordinary rows keep the plain norm, bit for bit
        plain = radial_log_density(3, np.linalg.norm(ordinary, axis=1))
        assert np.array_equal(stacked[:4], plain)

    def test_point_whose_norm_passes_the_largest_float(self):
        # hypot's redo of the norm overflowed outside the errstate, so this
        # point raised an overflow RuntimeWarning; ||x|| is inf, log p is -inf
        dist = GhsDistribution(2)
        x = [1.7e308, 1.7e308]
        assert log_density(dist, x) == -math.inf and density(dist, x) == 0.0
        stacked = log_density(dist, np.array([x, [0.5, 0.5]]))
        assert stacked[0] == -math.inf and stacked[1] == log_density(dist, [0.5, 0.5])

    PAST_FLOAT_MAX = [(3, [1e-200, 0.0, 0.0]), (100, [1e-10] + [0.0] * 99)]

    @pytest.mark.parametrize("d, x", PAST_FLOAT_MAX)
    def test_density_past_the_float_range_is_inf(self, d, x):
        # a raw OverflowError before: log p passes log(float max) ~ 709.78
        dist = GhsDistribution(d)
        assert log_density(dist, x) > 709.79
        assert density(dist, x) == math.inf
        ordinary = [0.5] * d
        assert density(dist, ordinary) == math.exp(log_density(dist, ordinary))

    @pytest.mark.parametrize("d, x", PAST_FLOAT_MAX)
    def test_stack_density_past_the_float_range_is_inf_without_warning(self, d, x):
        # an overflow RuntimeWarning before, from np.exp of the stack
        import warnings

        dist = GhsDistribution(d)
        pts = np.array([x, [0.5] * d])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = density(dist, pts)
        assert stacked[0] == math.inf
        assert np.array_equal(stacked[1:], np.exp(log_density(dist, pts)[1:]))


class TestNormalization:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_density_integrates_to_one(self, d):
        assert normalization_integral(d) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_mass_saturates(self, d):
        assert origin_ball_mass(d, 1e7) == pytest.approx(1.0, abs=1e-6)


class TestSampler:
    def test_deterministic_for_fixed_seed(self):
        lam_a, xs_a = sample_arrays(GhsDistribution(2), 50, seed=123)
        lam_b, xs_b = sample_arrays(GhsDistribution(2), 50, seed=123)
        assert np.array_equal(lam_a, lam_b) and np.array_equal(xs_a, xs_b)

    def test_draws_frozen_for_seed(self):
        # the RNG calls of the sampler are part of its contract: same seed,
        # same bits, on every version of the package
        lam, xs = sample_arrays(GhsDistribution(2), 3, seed=5)
        assert lam.tolist() == [3.1620211376718386, 3.213528292331399, 1.049344078942614]
        assert xs.tolist() == [
            [1.3294567299966473, 3.5922031491110475],
            [0.3525446180704368, -1.7759478002243223],
            [-0.8235046191509992, 0.7856919411536673],
        ]

    def test_different_seeds_differ(self):
        lam_a, _ = sample_arrays(GhsDistribution(2), 10, seed=1)
        lam_b, _ = sample_arrays(GhsDistribution(2), 10, seed=2)
        assert not np.array_equal(lam_a, lam_b)

    def test_coordinate_means_near_zero(self):
        _, xs = sample_arrays(GhsDistribution(3), 100_000, seed=42)
        se = xs.std(axis=0) / math.sqrt(xs.shape[0])
        assert np.all(np.abs(xs.mean(axis=0)) < 4.0 * se)

    def test_local_scales_positive(self):
        lam, _ = sample_arrays(GhsDistribution(1), 1000, seed=3)
        assert np.all(lam > 0)

    def test_scale_parameter_multiplies_draws(self):
        lam1, x1 = sample_arrays(GhsDistribution(2, 1.0), 100, seed=6)
        lam2, x2 = sample_arrays(GhsDistribution(2, 3.0), 100, seed=6)
        assert np.array_equal(lam1, lam2)
        assert np.allclose(x2, 3.0 * x1)

    def test_coordinate_marginal_matches_univariate_density(self):
        # each coordinate of a d=3 draw is marginally univariate horseshoe;
        # compare empirical CDF to the d=1 ball mass (the chi-square mixture)
        _, xs = sample_arrays(GhsDistribution(3), 100_000, seed=42)
        coord = np.sort(xs[:, 0])
        grid = np.linspace(-8.0, 8.0, 81)
        theo = np.array(
            [
                0.5 + 0.5 * math.copysign(_ball_masses(1, [abs(g)], 0.0)[0], g)
                if g != 0.0
                else 0.5
                for g in grid
            ]
        )
        emp = np.searchsorted(coord, grid, side="right") / coord.size
        band = 1.95 / math.sqrt(coord.size)  # ~ alpha = 0.001 KS band
        assert np.max(np.abs(emp - theo)) < band

    def test_radial_cdf_matches_quadrature(self):
        _, xs = sample_arrays(GhsDistribution(2), 100_000, seed=7)
        radii = np.sort(np.linalg.norm(xs, axis=1))
        grid = np.linspace(0.05, 10.0, 60)
        theo = np.array([_ball_masses(2, [g], 0.0)[0] for g in grid])
        emp = np.searchsorted(radii, grid, side="right") / radii.size
        assert np.max(np.abs(emp - theo)) < 1.95 / math.sqrt(radii.size)

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            sample_arrays(GhsDistribution(1), 0, seed=1)
        for n in (2.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                sample_arrays(GhsDistribution(1), n, seed=1)
        lam, xs = sample_arrays(GhsDistribution(2), 3.0, seed=1)  # a whole float is a count
        assert lam.shape == (3,) and xs.shape == (3, 2)

    @pytest.mark.parametrize("seed", [1.5, 2.0, math.nan, math.inf, "a", None, -1])
    def test_rejects_bad_seed(self, seed):
        # 1.5 ran as seed 1, also as a split_seed path entry; NaN and "a"
        # raised a raw ValueError, as did -1 as a path entry
        for f in (make_rng, lambda s: split_seed(s, 0), lambda s: split_seed(1, 0, s)):
            with pytest.raises(DomainError):
                f(seed)
        with pytest.raises(DomainError):
            sample_arrays(GhsDistribution(1), 3, seed=seed)

    def test_integer_seeds_accepted(self):
        for seed in (0, 7, np.int64(7), 2**70):
            make_rng(seed)
        assert split_seed(np.int64(7), 1) == split_seed(7, 1)
        assert split_seed(7, np.int64(1), np.uint8(2)) == split_seed(7, 1, 2)
