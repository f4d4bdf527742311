import numpy as np
import pytest

from stochgm import (DesignMatrix, covariance_decompose, fit_bundle, ols_fit,
                     r2_curve, scenario_neglect_fc, variance_decompose,
                     weighted_coefficients)
from stochgm.errors import NumericalError
from stochgm.sensitivity import (baseline_surfaces, covariance_percentages,
                                 modified_sigma_tt)


def random_design(n=60, seed=0, correlated=True):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((n, 7))
    if correlated:
        mix = np.eye(7) + 0.3 * rng.standard_normal((7, 7))
        theta = theta @ mix
    return DesignMatrix(theta)


def random_bundle(n=60, n_periods=5, seed=0, noise=0.5):
    rng = np.random.default_rng(seed)
    dm = random_design(n, seed)
    periods = np.logspace(-1, 1, n_periods)
    true_beta = rng.standard_normal((7, n_periods))
    y = 1.0 + dm.theta @ true_beta + noise * rng.standard_normal((n, n_periods))
    return dm, fit_bundle(dm, y, periods)


class TestOlsFit:
    def test_exact_on_noiseless_data(self):
        rng = np.random.default_rng(1)
        dm = random_design(50, 1)
        beta = rng.standard_normal(7)
        y = 2.5 + dm.theta @ beta
        b0, bhat, resid = ols_fit(dm, y)
        assert b0 == pytest.approx(2.5, rel=1e-8)
        np.testing.assert_allclose(bhat, beta, rtol=1e-8)
        assert np.abs(resid).max() < 1e-8

    def test_constant_response(self):
        dm = random_design(30, 2)
        b0, beta, _ = ols_fit(dm, np.full(30, 4.2))
        assert b0 == pytest.approx(4.2)
        np.testing.assert_allclose(beta, 0.0, atol=1e-10)

    def test_recovery_under_noise(self):
        rng = np.random.default_rng(3)
        dm = random_design(10000, 3, correlated=False)
        beta = rng.standard_normal(7)
        y = dm.theta @ beta + rng.standard_normal(10000)
        _, bhat, _ = ols_fit(dm, y)
        se = 1.0 / np.sqrt(10000)  # unit-variance orthonormal-ish inputs
        assert np.all(np.abs(bhat - beta) < 3 * se * 1.5)

    def test_rank_deficient(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((40, 7))
        theta[:, 6] = 2.0 * theta[:, 0]
        with pytest.raises(NumericalError, match="rank deficient"):
            DesignMatrix(theta)

    def test_residual_mean_zero(self):
        _, bundle = random_bundle(seed=5)
        assert np.abs(bundle.residuals.mean(axis=0)).max() < 1e-10


class TestVarianceDecompose:
    def test_identity(self):
        _, bundle = random_bundle(seed=6)
        for period in bundle.periods:
            d = variance_decompose(bundle, period)
            total = d["explained"] + d["residual"]
            j = bundle.period_index(period)
            assert total == pytest.approx(bundle.var_y[j], rel=1e-10)

    def test_noiseless_r2_is_one(self):
        dm, _ = random_bundle(seed=7)
        rng = np.random.default_rng(7)
        periods = np.array([0.5, 1.0])
        y = dm.theta @ rng.standard_normal((7, 2))
        bundle = fit_bundle(dm, y, periods)
        for period in periods:
            assert variance_decompose(bundle, period)["r2"] == pytest.approx(1.0)

    def test_independent_response_r2_near_zero(self):
        rng = np.random.default_rng(8)
        dm = random_design(5000, 8)
        y = rng.standard_normal((5000, 1))
        bundle = fit_bundle(dm, y, np.array([1.0]))
        assert variance_decompose(bundle, 1.0)["r2"] < 0.01


class TestCovarianceDecompose:
    def test_four_term_identity(self):
        _, bundle = random_bundle(seed=9)
        n = bundle.residuals.shape[0]
        y_cov_target = bundle.beta.T @ bundle.sigma_tt @ bundle.beta \
            + bundle.cov_eps  # cross terms are zero in-sample
        for t1 in bundle.periods:
            for t2 in bundle.periods:
                terms = covariance_decompose(bundle, t1, t2)
                j1, j2 = bundle.period_index(t1), bundle.period_index(t2)
                assert sum(terms.values()) == pytest.approx(
                    y_cov_target[j1, j2], rel=1e-10, abs=1e-12)

    def test_empirical_covariance_match(self):
        # independent check against the raw data covariance (divisor n)
        rng = np.random.default_rng(10)
        dm = random_design(80, 10)
        periods = np.array([0.3, 3.0])
        y = dm.theta @ rng.standard_normal((7, 2)) \
            + 0.4 * rng.standard_normal((80, 2))
        bundle = fit_bundle(dm, y, periods)
        yc = y - y.mean(axis=0)
        emp = yc.T @ yc / 80
        terms = covariance_decompose(bundle, 0.3, 3.0)
        assert sum(terms.values()) == pytest.approx(emp[0, 1], rel=1e-10)

    def test_cross_terms_vanish(self):
        _, bundle = random_bundle(seed=11)
        terms = covariance_decompose(bundle, bundle.periods[0],
                                     bundle.periods[-1])
        assert abs(terms["beta1_cov_theta_eps2"]) < 1e-10
        assert abs(terms["beta2_cov_theta_eps1"]) < 1e-10

    def test_same_period_reduces_to_variance(self):
        _, bundle = random_bundle(seed=12)
        period = bundle.periods[2]
        terms = covariance_decompose(bundle, period, period)
        d = variance_decompose(bundle, period)
        assert terms["beta_sigma_beta"] == pytest.approx(d["explained"])
        assert terms["cov_eps"] == pytest.approx(d["residual"], rel=1e-10)

    def test_percentages_sum_to_100(self):
        _, bundle = random_bundle(seed=13)
        pct = covariance_percentages(bundle, bundle.periods[0], bundle.periods[3])
        assert sum(pct.values()) == pytest.approx(100.0, abs=1e-8)


class TestWeightedCoefficients:
    def test_uncorrelated_sum_of_squares(self):
        # synthetically decorrelate the inputs, then the identity is exact
        rng = np.random.default_rng(14)
        raw = rng.standard_normal((200, 7))
        raw -= raw.mean(axis=0)
        cov = raw.T @ raw / 200
        white = raw @ np.linalg.inv(np.linalg.cholesky(cov)).T
        white *= rng.uniform(0.5, 2.0, 7)  # unequal variances, zero correlation
        dm = DesignMatrix(white)
        y = white @ rng.standard_normal(7) + 0.3 * rng.standard_normal(200)
        bundle = fit_bundle(dm, y[:, None], np.array([1.0]))
        wc = weighted_coefficients(bundle)[:, 0]
        explained = bundle.beta[:, 0] @ bundle.sigma_tt @ bundle.beta[:, 0]
        assert np.sum(wc ** 2) == pytest.approx(explained, rel=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(15)
        dm = random_design(60, 15)
        y = dm.theta @ rng.standard_normal(7) + rng.standard_normal(60)
        b1 = fit_bundle(dm, y[:, None], np.array([1.0]))
        scaled = dm.theta.copy()
        scaled[:, 3] *= 2.0
        b2 = fit_bundle(DesignMatrix(scaled), y[:, None], np.array([1.0]))
        np.testing.assert_allclose(weighted_coefficients(b1),
                                   weighted_coefficients(b2), rtol=1e-8)

    def test_zero_variance_weight(self):
        _, bundle = random_bundle(seed=16)
        s = bundle.sigma_tt.copy()
        object.__setattr__(bundle, "sigma_tt", s)
        s[2, :] = s[:, 2] = 0.0
        wc = weighted_coefficients(bundle)
        np.testing.assert_array_equal(wc[2], 0.0)


class TestScenarios:
    def test_no_cov_noop_when_uncorrelated(self):
        rng = np.random.default_rng(17)
        theta = rng.standard_normal((300, 7))
        theta -= theta.mean(axis=0)
        cov = theta.T @ theta / 300
        theta = theta @ np.linalg.inv(np.linalg.cholesky(cov)).T
        dm = DesignMatrix(theta)
        y = theta @ rng.standard_normal((7, 2)) + rng.standard_normal((300, 2))
        bundle = fit_bundle(dm, y, np.array([0.5, 2.0]))
        scen = scenario_neglect_fc(bundle, "no_cov")
        base = baseline_surfaces(bundle)
        np.testing.assert_allclose(scen["var"], base["var"], rtol=1e-10)
        np.testing.assert_allclose(scen["rho"], base["rho"], rtol=1e-8)

    def test_const_fc_matches_quadratic_oracle(self):
        # 2-input analytic fixture embedded in the 7-column design:
        # only columns 0 and 6 (fc) carry signal
        rng = np.random.default_rng(18)
        x = rng.standard_normal(500)
        fc = 0.6 * x + 0.8 * rng.standard_normal(500)
        theta = 0.01 * rng.standard_normal((500, 7))
        theta[:, 0] = x
        theta[:, 6] = fc
        dm = DesignMatrix(theta)
        y = 2.0 * x + 1.5 * fc + 0.1 * rng.standard_normal(500)
        bundle = fit_bundle(dm, y[:, None], np.array([1.0]))

        scen = scenario_neglect_fc(bundle, "const_fc")
        b = bundle.beta[:, 0]
        s = bundle.sigma_tt
        # hand-expanded quadratic form: removing row/col 7 subtracts
        # b7^2 s77 + 2 b7 sum_{n != 7} b_n s_n7
        drop = b[6] ** 2 * s[6, 6] + 2 * b[6] * (b @ s[:, 6] - b[6] * s[6, 6])
        expected = baseline_surfaces(bundle)["var"][0] - drop
        assert scen["var"][0] == pytest.approx(expected, rel=1e-10)

    def test_modified_sigma_shapes(self):
        _, bundle = random_bundle(seed=19)
        s_const = modified_sigma_tt(bundle, "const_fc")
        assert np.all(s_const[6, :] == 0) and np.all(s_const[:, 6] == 0)
        s_nocov = modified_sigma_tt(bundle, "no_cov")
        assert s_nocov[6, 6] == bundle.sigma_tt[6, 6]
        assert np.all(s_nocov[6, :5] == 0)
        with pytest.raises(ValueError):
            modified_sigma_tt(bundle, "bogus")

    def test_const_fc_preserves_psd_variances(self):
        _, bundle = random_bundle(seed=20)
        scen = scenario_neglect_fc(bundle, "const_fc")
        assert np.all(scen["var"] > 0)
        assert not scen["negative_variance"].any()

    def test_rho_surface_symmetric_unit_diag(self):
        _, bundle = random_bundle(seed=21)
        for mode in ("const_fc", "no_cov"):
            rho = scenario_neglect_fc(bundle, mode)["rho"]
            np.testing.assert_array_equal(rho, rho.T)
            np.testing.assert_array_equal(np.diag(rho), 1.0)


class TestAffineInvariance:
    def test_affine_reparameterization(self):
        rng = np.random.default_rng(22)
        dm = random_design(70, 22)
        y = dm.theta @ rng.standard_normal((7, 3)) \
            + 0.2 * rng.standard_normal((70, 3))
        periods = np.array([0.2, 1.0, 5.0])
        b1 = fit_bundle(dm, y, periods)
        mapped = dm.theta.copy()
        mapped[:, 4] = -3.0 * mapped[:, 4] + 7.0
        b2 = fit_bundle(DesignMatrix(mapped), y, periods)
        np.testing.assert_allclose(r2_curve(b1), r2_curve(b2), rtol=1e-8)
        np.testing.assert_allclose(b1.residuals, b2.residuals, atol=1e-8)
        np.testing.assert_allclose(baseline_surfaces(b1)["rho"],
                                   baseline_surfaces(b2)["rho"], atol=1e-8)
