"""Property tests of the covariance terms' orientation: the decompositions
and surfaces against the per-pair formulas, on bundles built directly with
input-residual cross-covariances far from the ~0 of an in-sample OLS fit,
so that a swapped or transposed cross term shows."""

import numpy as np
import pytest

from stochgm.sensitivity import (FC_INDEX, PARAM_LABELS, RegressionBundle,
                                 baseline_surfaces, covariance_decompose,
                                 modified_sigma_tt, scenario_neglect_fc,
                                 variance_decompose)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

P = len(PARAM_LABELS)
TOL = {"rtol": 1e-12, "atol": 1e-12}


def make_bundle(seed, n_t):
    """A bundle with random betas and cross-covariances. sigma_tt is
    symmetric and diagonally dominant, so it stays positive definite with
    the fc covariances zeroed, and every variance is at least 1."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((P, P))
    sigma_tt = (a + a.T) / 2
    np.fill_diagonal(sigma_tt, 0.0)
    np.fill_diagonal(sigma_tt, np.abs(sigma_tt).sum(axis=1) + rng.uniform(0.1, 1.0, P))
    e = rng.standard_normal((n_t, n_t))
    cov_eps = e @ e.T / n_t + np.eye(n_t)
    return RegressionBundle(
        periods=np.logspace(-1, 1, n_t), beta=rng.standard_normal((P, n_t)),
        residuals=np.zeros((2 * P, n_t)), sigma_tt=sigma_tt,
        var_y=rng.uniform(1.0, 5.0, n_t), var_eps=np.diag(cov_eps).copy(),
        cov_eps=cov_eps, cov_theta_eps=rng.standard_normal((P, n_t)))


def pair_terms(bundle, j1, j2, s):
    """The four covariance terms of one period pair, one dot product each."""
    b1, b2 = bundle.beta[:, j1], bundle.beta[:, j2]
    return {"beta_sigma_beta": b1 @ s @ b2,
            "beta1_cov_theta_eps2": b1 @ bundle.cov_theta_eps[:, j2],
            "beta2_cov_theta_eps1": b2 @ bundle.cov_theta_eps[:, j1],
            "cov_eps": bundle.cov_eps[j1, j2]}


def pair_surfaces(bundle, s):
    n_t = bundle.periods.size
    cov = np.array([[sum(pair_terms(bundle, j1, j2, s).values())
                     for j2 in range(n_t)] for j1 in range(n_t)])
    var = np.array([pair_terms(bundle, j, j, s)["beta_sigma_beta"]
                    for j in range(n_t)]) + bundle.var_eps
    rho = cov / np.sqrt(np.outer(np.abs(var), np.abs(var)))
    rho = (rho + rho.T) / 2
    np.fill_diagonal(rho, 1.0)
    return var, rho


BUNDLES = st.builds(make_bundle, st.integers(0, 2 ** 32 - 1), st.integers(1, 6))


@settings(max_examples=40)
@given(bundle=BUNDLES, mode=st.sampled_from([None, "const_fc", "no_cov"]))
def test_decompositions_match_pair_formulas(bundle, mode):
    s = bundle.sigma_tt if mode is None else modified_sigma_tt(bundle, mode)
    for j1, t1 in enumerate(bundle.periods):
        explained = pair_terms(bundle, j1, j1, s)["beta_sigma_beta"]
        d = variance_decompose(bundle, t1, sigma_tt=s)
        np.testing.assert_allclose(
            [d["explained"], d["residual"], d["r2"]],
            [explained, bundle.var_eps[j1], explained / bundle.var_y[j1]], **TOL)
        for j2, t2 in enumerate(bundle.periods):
            got = covariance_decompose(bundle, t1, t2, sigma_tt=s)
            want = pair_terms(bundle, j1, j2, s)
            assert list(got) == list(want)
            np.testing.assert_allclose(list(got.values()), list(want.values()), **TOL)


@settings(max_examples=40)
@given(bundle=BUNDLES)
def test_surfaces_match_pair_formulas(bundle):
    var, rho = pair_surfaces(bundle, bundle.sigma_tt)
    base = baseline_surfaces(bundle)
    np.testing.assert_allclose(base["var"], var, **TOL)
    np.testing.assert_allclose(base["rho"], rho, **TOL)
    for mode in ("const_fc", "no_cov"):
        s = bundle.sigma_tt.copy()
        s[FC_INDEX, :] = s[:, FC_INDEX] = 0.0
        if mode == "no_cov":
            s[FC_INDEX, FC_INDEX] = bundle.sigma_tt[FC_INDEX, FC_INDEX]
        var, rho = pair_surfaces(bundle, s)
        scen = scenario_neglect_fc(bundle, mode)
        np.testing.assert_allclose(scen["var"], var, **TOL)
        np.testing.assert_allclose(scen["rho"], rho, **TOL)
        np.testing.assert_array_equal(scen["negative_variance"], var <= 0)
