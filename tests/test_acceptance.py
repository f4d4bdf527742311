"""Acceptance suite.

One test per release criterion. Each test is tied to a short label in
CRITERIA; the conftest terminal-summary hook prints one PASS/FAIL/SKIP
line per criterion at the end of the run so the gate is readable at a
glance even under output capture.

The last criterion needs a user-supplied recorded-motion catalog with
fitted model parameters and is skipped (not failed) when the
STOCHGM_NGA_CATALOG environment variable is absent.
"""

import math
import os
import zlib

import numpy as np
import pytest

from stochgm import (DesignMatrix, FcSearchConfig, GMParams, JointParamModel,
                     MarginalModel, apply_highpass, batch_log_sa, compute_sa,
                     covariance_decompose, covariance_percentages, fit_bundle,
                     fit_copula, fit_marginal, highpass, modified_sigma_tt,
                     optimize_fc, sample_params, simulate_spectral,
                     simulate_temporal, solve_modulator, standard_period_grid,
                     variance_decompose, weighted_coefficients)
from stochgm.catalog_io import AccelerogramRecord, load_catalog
from stochgm.cli import entry_params
from stochgm.gm_model import _ai_quantile_times

CRITERIA = {
    "test_highpass_transfer": "high-pass transfer within 2% of w^2/(w^2+wc^2)",
    "test_zero_residuals": "final velocity/displacement < 1e-3 of peaks",
    "test_step2_normalization": "unit variance after normalization, both engines",
    "test_engine_equivalence": "temporal vs spectral mean log Sa within 2 SE",
    "test_sdof_resonance": "SDOF resonance 1/(2 zeta), zero input, homogeneity",
    "test_fc_self_recovery": "fc grid search recovers 0.2/0.5/1.0 Hz +- 0.1",
    "test_regression_identities": "variance/covariance identities to 1e-10",
    "test_weighted_coefficient_identity": "sum (beta sigma)^2 identity to 1e-10",
    "test_scenario_quadratic_oracle": "const_fc reduction matches hand expansion",
    "test_copula_round_trip": "marginal/copula round trips at n=1e5",
    "test_reference_catalog": "recorded-catalog reference check (data gated)",
}


@pytest.fixture(scope="module")
def params():
    return GMParams(log_ai=np.log(0.5), d595=10.0, t_mid=5.0, omega_mid=15.0,
                    omega_rate=-0.2, zeta_f=0.3, t_total=25.0)


def test_highpass_transfer():
    dt = 0.01
    n = 1 << 16
    for fc in (0.1, 0.5, 1.0):
        wc = 2 * math.pi * fc
        impulse = np.zeros(n)
        impulse[0] = 1.0 / dt
        out = highpass(impulse, fc, dt)
        spec = np.fft.rfft(out) * dt
        w = 2 * math.pi * np.fft.rfftfreq(out.size, dt)
        band = (w >= wc / 4) & (w <= 10 * wc)
        target = w[band] ** 2 / (w[band] ** 2 + wc ** 2)
        rel = np.abs(np.abs(spec[band]) - target) / target
        assert rel.max() < 0.02, f"fc={fc}: transfer error {rel.max():.4f}"


def test_zero_residuals(params):
    dt = 0.02
    batch = apply_highpass(simulate_spectral(params, dt, 100, seed=11), 0.5)
    acc = batch.realizations
    vel = np.cumsum(acc, axis=-1) * dt
    disp = np.cumsum(vel, axis=-1) * dt
    vel_ratio = np.abs(vel[:, -1]) / np.abs(vel).max(axis=-1)
    disp_ratio = np.abs(disp[:, -1]) / np.abs(disp).max(axis=-1)
    assert vel_ratio.max() < 1e-3
    assert disp_ratio.max() < 1e-3


def test_step2_normalization(params):
    dt = 0.02
    coeffs = solve_modulator(params.log_ai, params.d595, params.t_mid,
                             params.t_total)
    t5, _, t95 = _ai_quantile_times(2 * coeffs.a2 - 1, 2 * coeffs.a3,
                                    params.t_total)
    probes = np.linspace(t5, t95, 20)
    idx = np.round(probes / dt).astype(int)
    q = coeffs(idx * dt)
    for engine in (simulate_temporal, simulate_spectral):
        batch = engine(params, dt, 10_000, seed=42)
        var_x2 = batch.realizations[:, idx].var(axis=0) / q ** 2
        err = np.abs(var_x2 - 1.0).max()
        assert err < 0.03, f"{engine.__name__}: max |var-1| = {err:.4f}"


def test_engine_equivalence():
    # dt fine enough that sampling the oscillator impulse response does
    # not alias appreciable energy into the shortest-period ordinates, and
    # duration long enough that the spectral engine's lowest frequency
    # line (2 pi / t_total) sits well below the longest-period oscillator
    dt = 0.01
    long_params = GMParams(log_ai=np.log(0.5), d595=25.0, t_mid=12.0,
                           omega_mid=15.0, omega_rate=-0.05, zeta_f=0.3,
                           t_total=60.0)
    periods = standard_period_grid()
    n = 1000
    lt = batch_log_sa(simulate_temporal(long_params, dt, n, seed=11), periods)
    ls = batch_log_sa(simulate_spectral(long_params, dt, n, seed=12), periods)
    se = np.sqrt(lt.var(axis=0, ddof=1) / n + ls.var(axis=0, ddof=1) / n)
    z = np.abs(lt.mean(axis=0) - ls.mean(axis=0)) / se
    assert z.max() < 2.0, f"max |z| = {z.max():.3f}"


def test_sdof_resonance():
    period, zeta, dt = 1.0, 0.05, 0.005
    t = np.arange(0, 60 * period, dt)
    accel = np.sin(2 * math.pi / period * t)
    spec = compute_sa(accel, dt, np.array([period]), damping=zeta)
    assert spec.sa[0] == pytest.approx(1 / (2 * zeta), rel=0.05)

    zero = compute_sa(np.zeros(2000), 0.01, standard_period_grid(20, 0.1, 5.0))
    assert np.all(zero.sa == 0)

    rng = np.random.default_rng(8)
    x = rng.standard_normal(1500)
    grid = standard_period_grid(25, 0.05, 8.0)
    s1 = compute_sa(x, 0.01, grid).sa
    s2 = compute_sa(2.5 * x, 0.01, grid).sa
    np.testing.assert_allclose(s2, 2.5 * s1, rtol=1e-10)


def test_fc_self_recovery(params):
    dt = 0.02
    config = FcSearchConfig(grid_lo=0.0, grid_hi=2.0, step=0.01, n_mc=100,
                            seed=0)
    for fc_true in (0.2, 0.5, 1.0):
        batch = apply_highpass(simulate_spectral(params, dt, 1, seed=909),
                               fc_true)
        record_accel = batch.realizations[0]
        rec = AccelerogramRecord(id=f"synthetic_{fc_true}", dt=dt,
                                 accel=record_accel, unit="m/s2")
        res = optimize_fc(rec, params.with_fc(None), config, "spectral")
        assert abs(res.fc_star - fc_true) <= 0.1 + 1e-9, \
            f"fc_true={fc_true}: recovered {res.fc_star}"
        i = int(np.argmin(res.epsilon_curve))
        if i > 0:
            assert res.epsilon_curve[i] <= res.epsilon_curve[i - 1]
        if i < res.epsilon_curve.size - 1:
            assert res.epsilon_curve[i] <= res.epsilon_curve[i + 1]


def _synthetic_fixture(seed=4, n=200, n_t=6, noise=0.3):
    rng = np.random.default_rng(seed)
    mean = np.array([0.0, 10.0, 5.0, 15.0, -0.1, 0.3, 0.4])
    a = rng.standard_normal((7, 7)) * 0.2
    theta = mean + rng.standard_normal((n, 7)) @ a.T
    dm = DesignMatrix(theta=theta)
    periods = np.logspace(-1, 1, n_t)
    coeffs = rng.standard_normal((7, n_t))
    y = theta @ coeffs + noise * rng.standard_normal((n, n_t))
    return dm, y, periods


def test_regression_identities():
    for seed in (4, 11, 37):
        dm, y, periods = _synthetic_fixture(seed=seed)
        bundle = fit_bundle(dm, y, periods)
        for j1, t1 in enumerate(periods):
            dec = variance_decompose(bundle, t1)
            emp_var = float(y[:, j1].var())
            assert dec["explained"] + dec["residual"] == \
                pytest.approx(emp_var, rel=1e-10)
            for j2, t2 in enumerate(periods):
                emp = float(np.cov(y[:, j1], y[:, j2], ddof=0)[0, 1])
                terms = covariance_decompose(bundle, t1, t2)
                assert sum(terms.values()) == pytest.approx(emp, rel=1e-10)
                assert abs(terms["beta1_cov_theta_eps2"]) <= 1e-10 * abs(emp)
                assert abs(terms["beta2_cov_theta_eps1"]) <= 1e-10 * abs(emp)
                pct = covariance_percentages(bundle, t1, t2)
                assert sum(pct.values()) == pytest.approx(100.0, abs=1e-8)


def test_weighted_coefficient_identity():
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((300, 7))
    # decorrelate the columns exactly (sample covariance becomes diagonal)
    centered = raw - raw.mean(axis=0)
    vals, vecs = np.linalg.eigh(centered.T @ centered / raw.shape[0])
    theta = centered @ vecs * np.array([1, 2, 3, 4, 5, 6, 7], dtype=float)
    dm = DesignMatrix(theta=theta)
    periods = np.array([0.5, 2.0])
    y = theta @ rng.standard_normal((7, 2)) + 0.1 * rng.standard_normal((300, 2))
    bundle = fit_bundle(dm, y, periods)

    wc = weighted_coefficients(bundle)
    for j, t in enumerate(periods):
        quad = variance_decompose(bundle, t)["explained"]
        assert float((wc[:, j] ** 2).sum()) == pytest.approx(quad, rel=1e-10)


def test_scenario_quadratic_oracle():
    rng = np.random.default_rng(23)
    n = 150
    theta = rng.standard_normal((n, 7))
    theta[:, 6] = 0.6 * theta[:, 0] + 0.8 * rng.standard_normal(n)  # correlate
    dm = DesignMatrix(theta=theta)
    periods = np.array([1.0])
    b0, b6 = 1.3, -2.1  # only two inputs drive the output
    y = (b0 * theta[:, 0] + b6 * theta[:, 6])[:, None]
    bundle = fit_bundle(dm, y, periods)

    full = variance_decompose(bundle, 1.0)["explained"]
    reduced = variance_decompose(bundle, 1.0,
                                 sigma_tt=modified_sigma_tt(bundle, "const_fc"))
    s = bundle.sigma_tt
    beta = bundle.beta[:, 0]
    # hand-expanded quadratic form: dropping row/column 7 removes the
    # fc variance term and both cross terms with every other input
    oracle = (beta[6] ** 2 * s[6, 6]
              + 2 * beta[6] * sum(beta[k] * s[k, 6] for k in range(6)))
    assert full - reduced["explained"] == pytest.approx(oracle, rel=1e-10)


def test_copula_round_trip():
    n = 100_000
    marginals = (
        MarginalModel("normal", (0.2, 1.3), (-np.inf, np.inf)),
        MarginalModel("beta", (2.0, 3.0), (2.0, 18.0)),
        MarginalModel("beta", (2.5, 2.5), (1.0, 12.0)),
        MarginalModel("gamma", (4.0, 3.5), (0.0, np.inf)),
        MarginalModel("normal", (-0.1, 0.05), (-np.inf, np.inf)),
        MarginalModel("beta", (3.0, 4.0), (0.1, 0.6)),
        MarginalModel("exponential", (2.5,), (0.0, np.inf)),
    )
    corr = np.eye(7)
    pairs = {(0, 6): 0.45, (1, 2): 0.3, (3, 4): -0.5, (0, 1): 0.2}
    for (i, j), r in pairs.items():
        corr[i, j] = corr[j, i] = r
    model = JointParamModel(marginals=marginals, correlation=corr)
    x = sample_params(model, n, seed=99)

    families = ("normal", "beta", "beta", "gamma", "normal", "beta",
                "exponential")
    refit = [fit_marginal(x[:, j], fam) for j, fam in enumerate(families)]
    for true, fit in zip(marginals, refit):
        td, fd = true._dist(), fit._dist()
        scale = td.std()
        assert abs(fd.mean() - td.mean()) < 0.05 * scale
        assert abs(fd.std() - td.std()) < 0.05 * scale

    refit_corr = fit_copula(x, refit)
    assert np.abs(refit_corr - corr).max() < 0.03

    # closed-form maximum likelihood for the unbounded families
    col = x[:, 0]
    m = fit_marginal(col, "normal")
    assert m.params == (float(col.mean()), float(col.std()))
    col = x[:, 6]
    m = fit_marginal(col, "exponential")
    assert m.params == (float(1.0 / col.mean()),)


@pytest.mark.skipif("STOCHGM_NGA_CATALOG" not in os.environ,
                    reason="recorded-motion catalog not supplied")
def test_reference_catalog():
    """Data-gated reference check against a fitted recorded catalog.

    Requires STOCHGM_NGA_CATALOG to point at a manifest whose entries
    carry the fitted model parameters (and fc_hz for the baseline
    comparison) and which includes a record with id NGA1517.
    """
    from stochgm.catalog_stats import spectral_correlation

    manifest = os.environ["STOCHGM_NGA_CATALOG"]
    catalog = load_catalog(manifest)
    rec = catalog.record("NGA1517")
    p = entry_params(catalog.entry("NGA1517"), rec)
    res = optimize_fc(rec, p.with_fc(None), FcSearchConfig(seed=0), "spectral")
    assert abs(res.fc_star - 0.54) <= 0.05

    periods = standard_period_grid()
    recorded = np.vstack([np.log(compute_sa(r.accel, r.dt, periods).sa)
                          for r in catalog])
    rho_rec = spectral_correlation(recorded)

    def synthetic_rho(fc_of):
        rows = []
        for r in catalog:
            pp = entry_params(catalog.entry(r.id), r)
            batch = apply_highpass(
                simulate_spectral(pp.with_fc(None), r.dt, 1, seed=zlib.crc32(r.id.encode())),
                fc_of(pp))
            rows.append(np.log(compute_sa(batch.realizations[0], r.dt,
                                          periods).sa))
        return spectral_correlation(np.vstack(rows))

    rho_opt = synthetic_rho(lambda pp: pp.fc_hz)
    rho_const = synthetic_rho(lambda pp: 0.1)
    d_opt = np.linalg.norm(rho_opt - rho_rec)
    d_const = np.linalg.norm(rho_const - rho_rec)
    assert d_opt < d_const
