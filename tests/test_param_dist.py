import numpy as np
import pytest
from scipy import special, stats

from stochgm import (JointParamModel, MarginalModel, fit_copula, fit_marginal,
                     sample_params)
from stochgm.errors import DataError
from stochgm.param_dist import DEFAULT_FAMILIES, save_joint_model
from stochgm.sensitivity import PARAM_LABELS


class TestFitMarginal:
    def test_exponential_closed_form(self):
        m = fit_marginal([0.2, 0.4, 0.6, 0.2, 0.6], "exponential")
        assert m.params[0] == pytest.approx(1.0 / 0.4)

    def test_normal_closed_form(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        m = fit_marginal(x, "normal")
        assert m.params[0] == pytest.approx(x.mean())
        assert m.params[1] == pytest.approx(x.std())

    def test_gamma_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.gamma(shape=3.0, scale=2.0, size=100_000)
        m = fit_marginal(x, "gamma")
        assert m.params[0] == pytest.approx(3.0, rel=0.03)
        assert m.params[1] == pytest.approx(2.0, rel=0.03)

    def test_beta_support_margin(self):
        rng = np.random.default_rng(1)
        x = rng.beta(2.0, 5.0, 1000)
        m = fit_marginal(x, "beta")
        lo, hi = m.support
        assert lo < x.min() and hi > x.max()

    def test_out_of_support(self):
        with pytest.raises(DataError, match="exponential requires nonnegative"):
            fit_marginal([-1.0, 0.5, 1.0, 2.0, 3.0], "exponential")

    def test_degenerate(self):
        with pytest.raises(DataError, match="zero variance"):
            fit_marginal([1.0, 1.0, 1.0, 1.0, 1.0], "normal")
        with pytest.raises(DataError, match="at least 5 samples"):
            fit_marginal([1.0, 2.0], "normal")


MARGINALS = (MarginalModel("normal", (1.3, 0.7), (-np.inf, np.inf)),
             MarginalModel("exponential", (2.5,), (0.0, np.inf)),
             MarginalModel("gamma", (3.3, 1.7), (0.0, np.inf)),
             MarginalModel("beta", (0.83, 2.4), (0.5, 4.5)))


class TestAgainstScipyStats:
    """cdf, ppf and the gamma fit call scipy.special as scipy.stats does, so
    they give its bits; the beta fit solves the same likelihood equations
    by another method."""

    @pytest.mark.parametrize("m", MARGINALS, ids=lambda m: m.family)
    def test_cdf_ppf_bits(self, m):
        rng = np.random.default_rng(12)
        # interior points, the support's ends and points outside it
        x = np.concatenate([rng.normal(2.0, 3.0, 2000),
                            [-np.inf, np.inf, np.nan, 0.0, -0.0, 0.5, 4.5, 5.0, -1.0]])
        q = np.concatenate([rng.random(2000),
                            [0.0, 1.0, -0.1, 1.1, np.nan, 1e-300, 1 - 1e-16, 0.5]])
        assert m.cdf(x).tobytes() == m._dist().cdf(x).tobytes()
        assert m.ppf(q).tobytes() == m._dist().ppf(q).tobytes()

    def test_gamma_fit_is_scipys(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.gamma(rng.uniform(0.3, 20.0), rng.uniform(0.1, 10.0),
                          rng.integers(5, 200))
            a, _, scale = stats.gamma.fit(x, floc=0)
            assert fit_marginal(x, "gamma").params == (a, scale)

    def test_beta_fit_solves_likelihood(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.beta(rng.uniform(0.3, 30.0), rng.uniform(0.3, 30.0),
                         rng.integers(5, 200))
            m = fit_marginal(x, "beta")
            (a, b), (lo, hi) = m.params, m.support
            y = (x - lo) / (hi - lo)
            psi = special.digamma
            assert abs(psi(a) - psi(a + b) - np.log(y).mean()) < 1e-12
            assert abs(psi(b) - psi(a + b) - np.log1p(-y).mean()) < 1e-12
            ref = stats.beta.fit(x, floc=lo, fscale=hi - lo)[:2]
            np.testing.assert_allclose((a, b), ref, rtol=1e-8, atol=0)


class TestFitCopula:
    def test_independent_columns(self):
        rng = np.random.default_rng(2)
        n = 5000
        x = np.column_stack([rng.normal(size=n), rng.exponential(size=n)])
        marginals = [fit_marginal(x[:, 0], "normal"),
                     fit_marginal(x[:, 1], "exponential")]
        corr = fit_copula(x, marginals)
        assert abs(corr[0, 1]) < 3.0 / np.sqrt(n)

    def test_comonotone_pair(self):
        rng = np.random.default_rng(3)
        a = rng.exponential(size=2000)
        x = np.column_stack([a, np.sqrt(a)])
        marginals = [fit_marginal(x[:, 0], "exponential"),
                     fit_marginal(x[:, 1], "gamma")]
        corr = fit_copula(x, marginals)
        assert corr[0, 1] > 0.99

    def test_known_copula_round_trip(self):
        rng = np.random.default_rng(4)
        rho = 0.65
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], 100_000)
        u = stats.norm.cdf(z)
        x = np.column_stack([stats.expon.ppf(u[:, 0], scale=2.0),
                             stats.norm.ppf(u[:, 1], loc=1.0, scale=0.5)])
        marginals = [fit_marginal(x[:, 0], "exponential"),
                     fit_marginal(x[:, 1], "normal")]
        corr = fit_copula(x, marginals)
        assert corr[0, 1] == pytest.approx(rho, abs=0.02)


class TestSampleParams:
    def _model(self, rho=0.0):
        marginals = (MarginalModel("exponential", (2.0,), (0.0, np.inf)),
                     MarginalModel("normal", (1.0, 0.5), (-np.inf, np.inf)))
        corr = np.array([[1.0, rho], [rho, 1.0]])
        return JointParamModel(marginals=marginals, correlation=corr,
                               labels=("a", "b"))

    def test_identity_copula_uncorrelated_scores(self):
        n = 20_000
        x = sample_params(self._model(0.0), n, seed=5)
        z = stats.norm.ppf(np.column_stack([
            stats.expon(scale=0.5).cdf(x[:, 0]),
            stats.norm(1.0, 0.5).cdf(x[:, 1])]))
        assert abs(np.corrcoef(z, rowvar=False)[0, 1]) < 3.0 / np.sqrt(n)

    def test_marginal_ks_band(self):
        n = 100_000
        x = sample_params(self._model(0.4), n, seed=6)
        d1 = stats.kstest(x[:, 0], stats.expon(scale=0.5).cdf).statistic
        d2 = stats.kstest(x[:, 1], stats.norm(1.0, 0.5).cdf).statistic
        crit = 1.63 / np.sqrt(n)  # KS 1% critical value
        assert d1 < crit and d2 < crit

    def test_deterministic(self):
        x1 = sample_params(self._model(0.3), 100, seed=7)
        x2 = sample_params(self._model(0.3), 100, seed=7)
        np.testing.assert_array_equal(x1, x2)

    def test_supports_respected(self):
        x = sample_params(self._model(0.0), 5000, seed=8)
        assert np.all(x[:, 0] >= 0)

    def test_fit_sample_refit_closes(self):
        rng = np.random.default_rng(10)
        rho = 0.5
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], 100_000)
        u = stats.norm.cdf(z)
        x = np.column_stack([stats.expon.ppf(u[:, 0], scale=1.5),
                             stats.norm.ppf(u[:, 1], 2.0, 0.7)])
        marginals = (fit_marginal(x[:, 0], "exponential"),
                     fit_marginal(x[:, 1], "normal"))
        corr = fit_copula(x, marginals)
        model = JointParamModel(marginals=marginals, correlation=corr)
        y = sample_params(model, 100_000, seed=11)
        refit = (fit_marginal(y[:, 0], "exponential"),
                 fit_marginal(y[:, 1], "normal"))
        assert refit[0].params[0] == pytest.approx(marginals[0].params[0], rel=0.05)
        assert refit[1].params[0] == pytest.approx(marginals[1].params[0], rel=0.05)
        corr2 = fit_copula(y, refit)
        assert corr2[0, 1] == pytest.approx(corr[0, 1], abs=0.03)


class TestSerialization:
    def test_text_format(self, tmp_path):
        """The line format the README documents, read back as exact text."""
        marginals = (MarginalModel("exponential", (2.5,), (0.0, np.inf)),
                     MarginalModel("beta", (2.0, 3.0), (0.5, 4.5)))
        model = JointParamModel(marginals=marginals,
                                correlation=np.array([[1.0, 0.2], [0.2, 1.0]]),
                                labels=("fc_hz", "d595"))
        path = tmp_path / "model.txt"
        save_joint_model(model, path)
        assert path.read_text() == (
            "marginal fc_hz exponential params 2.5 support 0 inf\n"
            "marginal d595 beta params 2 3 support 0.5 4.5\n"
            "corr 1 0.2\n"
            "corr 0.2 1\n")


def test_default_families_follow_param_labels():
    # sample-params pairs DEFAULT_FAMILIES with theta columns by position
    assert dict(zip(PARAM_LABELS, DEFAULT_FAMILIES, strict=True)) == {
        "fc_hz": "exponential",
        "log_ai": "normal", "omega_rate": "normal",
        "d595": "beta", "t_mid": "beta", "zeta_f": "beta",
        "omega_mid": "gamma"}
