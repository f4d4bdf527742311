"""Per-period OLS of log Sa on the seven model parameters, with exact
variance and covariance decompositions.

Every empirical (co)variance here (input covariance, residual variance and
covariances, output variance) uses the population divisor n, so the
variance identity

    Var(Y) = beta' S beta + Var(eps)

and the four-term covariance identity hold algebraically, not just in
expectation. Cross-covariances between inputs and in-sample OLS residuals
vanish by the normal equations; they are carried through the covariance
decomposition anyway so the four reported terms always sum to the empirical
covariance.
"""

from dataclasses import dataclass

import numpy as np

from .catalog_io import PARAM_KEYS
from .errors import NumericalError

# the seven model parameters: the manifest's keys without the duration
PARAM_LABELS = tuple(k for k in PARAM_KEYS if k != "t_total")
FC_INDEX = PARAM_LABELS.index("fc_hz")


@dataclass(frozen=True)
class DesignMatrix:
    """n_records x 7 input matrix, columns ordered as PARAM_LABELS."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2 or theta.shape[1] != len(PARAM_LABELS):
            raise ValueError(f"theta must be (n, {len(PARAM_LABELS)})")
        if theta.shape[0] <= theta.shape[1] + 1:
            raise ValueError(f"need more records ({theta.shape[0]}) than "
                             f"coefficients incl. intercept ({theta.shape[1] + 1})")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")
        if np.linalg.matrix_rank(np.column_stack([np.ones(theta.shape[0]), theta])) \
                < theta.shape[1] + 1:
            raise NumericalError("design matrix (with intercept) is rank deficient")
        object.__setattr__(self, "theta", theta)

    @property
    def n(self):
        return self.theta.shape[0]

    @property
    def p(self):
        return self.theta.shape[1]


@dataclass(frozen=True)
class RegressionBundle:
    """All per-period fits plus the shared input covariance (divisor n)."""

    periods: np.ndarray          # (nT,)
    beta: np.ndarray             # (p, nT)
    residuals: np.ndarray        # (n, nT)
    sigma_tt: np.ndarray         # (p, p)
    var_y: np.ndarray            # (nT,)
    var_eps: np.ndarray          # (nT,)
    cov_eps: np.ndarray          # (nT, nT)
    cov_theta_eps: np.ndarray    # (p, nT)

    def period_index(self, period):
        j = int(np.argmin(np.abs(self.periods - period)))
        if abs(self.periods[j] - period) > 1e-9 * max(period, 1.0):
            raise KeyError(f"period {period} not in fitted grid")
        return j


def ols_fit(dm, y):
    """OLS with intercept for one period; returns (beta0, beta, residuals)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (dm.n,):
        raise ValueError("y must have one value per record")
    X = np.column_stack([np.ones(dm.n), dm.theta])
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < dm.p + 1:
        raise NumericalError("design matrix lost rank during the solve")
    resid = y - X @ coef
    return float(coef[0]), coef[1:], resid


def fit_bundle(dm, log_sa, periods):
    """Independent per-period OLS fits assembled into one bundle."""
    log_sa = np.asarray(log_sa, dtype=float)
    periods = np.asarray(periods, dtype=float)
    if log_sa.shape != (dm.n, periods.size):
        raise ValueError("log_sa must be (n_records, n_periods)")

    n, p, n_t = dm.n, dm.p, periods.size
    beta = np.empty((p, n_t))
    resid = np.empty((n, n_t))
    for j in range(n_t):
        _, beta[:, j], resid[:, j] = ols_fit(dm, log_sa[:, j])

    theta_c = dm.theta - dm.theta.mean(axis=0)
    resid_c = resid - resid.mean(axis=0)  # in-sample mean is already ~0
    return RegressionBundle(
        periods=periods, beta=beta, residuals=resid,
        sigma_tt=theta_c.T @ theta_c / n,
        var_y=log_sa.var(axis=0),
        var_eps=resid.var(axis=0),
        cov_eps=resid_c.T @ resid_c / n,
        cov_theta_eps=theta_c.T @ resid_c / n)


def _covariance_terms(bundle, sigma_tt=None):
    """The four terms of Cov(Y(T1), Y(T2)) as (nT, nT) matrices, entry
    [j1, j2] of each: beta1' S beta2 (S = sigma_tt or the bundle's),
    beta1' cov_theta_eps(T2), beta2' cov_theta_eps(T1) and cov_eps(T1, T2).
    They sum to the empirical covariance exactly (shared divisor n)."""
    s = bundle.sigma_tt if sigma_tt is None else sigma_tt
    cross = bundle.cov_theta_eps.T @ bundle.beta  # [j1, j2] = beta2' cov_theta_eps(T1)
    return {"beta_sigma_beta": bundle.beta.T @ s @ bundle.beta,
            "beta1_cov_theta_eps2": cross.T, "beta2_cov_theta_eps1": cross,
            "cov_eps": bundle.cov_eps}


def variance_decompose(bundle, period, sigma_tt=None):
    """Split Var(Y(T)) into the regression and residual parts."""
    j = bundle.period_index(period)
    explained = float(_covariance_terms(bundle, sigma_tt)["beta_sigma_beta"][j, j])
    return {"explained": explained, "residual": float(bundle.var_eps[j]),
            "r2": explained / float(bundle.var_y[j])}


def covariance_decompose(bundle, t1, t2, sigma_tt=None):
    """Four-term split of Cov(Y(T1), Y(T2)) (see _covariance_terms)."""
    j1, j2 = bundle.period_index(t1), bundle.period_index(t2)
    return {k: float(m[j1, j2])
            for k, m in _covariance_terms(bundle, sigma_tt).items()}


def r2_curve(bundle):
    """Coefficient of determination at every fitted period."""
    explained = np.einsum("pj,pq,qj->j", bundle.beta, bundle.sigma_tt, bundle.beta)
    return explained / bundle.var_y


def weighted_coefficients(bundle):
    """beta_n * sigma_theta_n per parameter and period (p, nT)."""
    sigma = np.sqrt(np.diag(bundle.sigma_tt))
    return bundle.beta * sigma[:, None]


def modified_sigma_tt(bundle, mode):
    """Input covariance with the fc row/column zeroed.

    const_fc zeroes the whole fc row and column including the variance;
    no_cov zeroes only the off-diagonal entries. no_cov can break positive
    semidefiniteness; the matrix is returned as-is (no repair).
    """
    if mode not in ("const_fc", "no_cov"):
        raise ValueError(f"unknown mode {mode!r}")
    s = bundle.sigma_tt.copy()
    s[FC_INDEX, :] = 0.0
    s[:, FC_INDEX] = 0.0
    if mode == "no_cov":
        s[FC_INDEX, FC_INDEX] = bundle.sigma_tt[FC_INDEX, FC_INDEX]
    return s


def _surfaces(bundle, sigma_tt):
    """Var and rho surfaces implied by the fitted bundle under input
    covariance sigma_tt; betas and residual terms unchanged."""
    terms = _covariance_terms(bundle, sigma_tt)
    cov = sum(terms.values())
    var = np.diag(terms["beta_sigma_beta"]) + bundle.var_eps
    rho = cov / np.sqrt(np.outer(np.abs(var), np.abs(var)))
    rho = (rho + rho.T) / 2
    np.fill_diagonal(rho, 1.0)
    return {"var": var, "rho": rho}


def scenario_neglect_fc(bundle, mode):
    """Recompute the variance and correlation surfaces with the fc entries
    of the input covariance removed (see modified_sigma_tt)."""
    surf = _surfaces(bundle, modified_sigma_tt(bundle, mode))
    return dict(surf, negative_variance=surf["var"] <= 0)


def baseline_surfaces(bundle):
    """Unmodified Var and rho surfaces implied by the fitted bundle."""
    return _surfaces(bundle, bundle.sigma_tt)


def covariance_percentages(bundle, t1, t2):
    """Each Eq-style covariance term as a percentage of the total."""
    terms = covariance_decompose(bundle, t1, t2)
    total = sum(terms.values())
    return {k: 100.0 * v / total for k, v in terms.items()}
