"""Marginal fits and Gaussian-copula sampling of the seven model parameters.

Default family assignment (overridable per column): corner frequency ->
exponential; log AI -> normal; D5-95, t_mid and the filter bandwidth ->
beta on data-driven bounds; filter frequency -> gamma; frequency rate ->
normal. Bounded supports are widened by 5% of the data range on each side
before fitting.

The distribution functions call the scipy.special functions that
scipy.stats calls, with its argument arithmetic and support masks, so the
module loads neither scipy.stats (about 1.2 s of import) nor
scipy.optimize.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DataError, NumericalError
from .gm_model import _brentq

log = logging.getLogger(__name__)

DEFAULT_FAMILIES = ("normal", "beta", "beta", "gamma", "normal", "beta", "exponential")
BOUND_MARGIN = 0.05  # fraction of the data range added on each side


@dataclass(frozen=True)
class MarginalModel:
    """One fitted marginal: family tag, scipy shape parameters, support."""

    family: str
    params: tuple
    support: tuple

    def _dist(self):
        """The frozen scipy.stats distribution, the reference for cdf and
        ppf; no program path calls it."""
        from scipy import stats

        lo, hi = self.support
        if self.family == "normal":
            return stats.norm(*self.params)
        if self.family == "exponential":
            return stats.expon(scale=1.0 / self.params[0])
        if self.family == "gamma":
            return stats.gamma(self.params[0], scale=self.params[1])
        if self.family == "beta":
            return stats.beta(self.params[0], self.params[1], loc=lo, scale=hi - lo)
        raise ValueError(f"unknown family {self.family!r}")

    def _standard(self):
        """loc, scale, the standard form's cdf and ppf, and its support
        (a, b), as scipy.stats parametrizes the family."""
        p = self.params
        if self.family == "normal":
            return p[0], p[1], special.ndtr, special.ndtri, (-np.inf, np.inf)
        if self.family == "exponential":
            return (0.0, 1.0 / p[0], lambda z: -special.expm1(-z),
                    lambda q: -special.log1p(-q), (0.0, np.inf))
        if self.family == "gamma":
            return (0.0, p[1], lambda z: special.gammainc(p[0], z),
                    lambda q: special.gammaincinv(p[0], q), (0.0, np.inf))
        if self.family == "beta":
            lo, hi = self.support
            return (lo, hi - lo, lambda z: special.betainc(*p, z),
                    lambda q: special.betaincinv(*p, q), (0.0, 1.0))
        raise ValueError(f"unknown family {self.family!r}")

    def cdf(self, x):
        """F(x): 0 at and below the support, 1 at and above it, NaN at NaN."""
        loc, scale, cdf, _, (a, b) = self._standard()
        z = (np.asarray(x, dtype=float) - loc) / scale
        with np.errstate(invalid="ignore"):
            return np.where(z <= a, 0.0, np.where(z >= b, 1.0, cdf(z)))

    def ppf(self, q):
        """F^-1(q): the support's ends at q = 0 and 1, NaN outside [0, 1]."""
        loc, scale, _, ppf, (a, b) = self._standard()
        q = np.asarray(q, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            inner = np.where((0 < q) & (q < 1), ppf(q) * scale + loc, np.nan)
        return np.where(q == 0, a * scale + loc,
                        np.where(q == 1, b * scale + loc, inner))


@dataclass(frozen=True)
class JointParamModel:
    """Seven marginals coupled by a Gaussian copula."""

    marginals: tuple
    correlation: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        corr = np.asarray(self.correlation, dtype=float)
        p = len(self.marginals)
        if corr.shape != (p, p):
            raise ValueError("correlation must be square, one row per marginal")
        if not np.allclose(corr, corr.T) or not np.allclose(np.diag(corr), 1.0):
            raise ValueError("correlation must be symmetric with unit diagonal")
        if np.linalg.eigvalsh(corr).min() < -1e-10:
            raise ValueError("correlation must be positive semidefinite")
        object.__setattr__(self, "correlation", corr)


def fit_marginal(samples, family):
    """Maximum-likelihood fit of one family; bounded families get support
    bounds from the data range plus the documented margin."""
    x = np.asarray(samples, dtype=float)
    if x.size < 5:
        raise DataError("need at least 5 samples")
    if np.ptp(x) == 0:
        raise DataError("sample has zero variance")

    if family == "normal":
        return MarginalModel("normal", (float(x.mean()), float(x.std())),
                             (-np.inf, np.inf))
    if family == "exponential":
        if np.any(x < 0):
            raise DataError("exponential requires nonnegative samples")
        return MarginalModel("exponential", (float(1.0 / x.mean()),), (0.0, np.inf))
    if family == "gamma":
        if np.any(x <= 0):
            raise DataError("gamma requires positive samples")
        # as scipy.stats.gamma.fit(x, floc=0): log a - digamma(a) = s on
        # its bracket around the closed-form estimate, by the same iterates
        s = np.log(x.mean()) - np.log(x).mean()
        aest = (3 - s + np.sqrt((s - 3) ** 2 + 24 * s)) / (12 * s)
        a = _brentq(lambda a: np.log(a) - special.digamma(a) - s,
                    aest * (1 - 0.4), aest * (1 + 0.4), xtol=2e-12)
        return MarginalModel("gamma", (float(a), float(x.mean() / a)), (0.0, np.inf))
    if family == "beta":
        margin = BOUND_MARGIN * np.ptp(x)
        lo, hi = float(x.min() - margin), float(x.max() + margin)
        return MarginalModel("beta", _beta_mle((x - lo) / (hi - lo)), (lo, hi))
    raise ValueError(f"unknown family {family!r}")


def _beta_mle(x):
    """Maximum-likelihood beta (a, b) of x in (0, 1): Newton on
    digamma(a) - digamma(a + b) = mean log x and digamma(b) - digamma(a + b)
    = mean log(1 - x) with the trigamma Jacobian, started, as
    scipy.stats.beta.fit starts, from the method of moments. The
    log-likelihood is concave; a step is halved only to keep a, b > 0."""
    g = np.array([np.log(x).mean(), special.log1p(-x).mean()])
    xbar = x.mean()
    fac = xbar * (1 - xbar) / x.var() - 1
    ab = np.array([xbar * fac, (1 - xbar) * fac])
    for _ in range(100):
        resid = special.digamma(ab) - special.digamma(ab.sum()) - g
        t, t0 = special.polygamma(1, ab), special.polygamma(1, ab.sum())
        step = np.linalg.solve([[t[0] - t0, -t0], [-t0, t[1] - t0]], resid)
        while np.any(step >= ab):
            step /= 2
        ab -= step
        if np.all(np.abs(step) <= 1e-13 * ab):
            return float(ab[0]), float(ab[1])
    raise NumericalError("beta likelihood did not converge in 100 steps")


def fit_copula(theta_matrix, marginals):
    """Pearson correlation of the Gaussian scores z = Phi^-1(F(x)).

    Projected to the nearest positive semidefinite matrix (eigenvalue
    clipping plus rescaling to unit diagonal) if sampling noise pushes the
    minimum eigenvalue below zero.
    """
    theta = np.asarray(theta_matrix, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != len(marginals):
        raise ValueError("theta_matrix must have one column per marginal")
    u = np.column_stack([m.cdf(theta[:, j]) for j, m in enumerate(marginals)])
    u = np.clip(u, 1e-12, 1 - 1e-12)
    z = special.ndtri(u)
    corr = np.corrcoef(z, rowvar=False)
    corr = (corr + corr.T) / 2
    np.fill_diagonal(corr, 1.0)
    if np.linalg.eigvalsh(corr).min() < 0:
        log.warning("copula correlation not PSD; projecting")
        vals, vecs = np.linalg.eigh(corr)
        corr = vecs @ np.diag(np.clip(vals, 1e-12, None)) @ vecs.T
        d = np.sqrt(np.diag(corr))
        corr = corr / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
    return corr


def sample_params(model, n, seed):
    """Draw n correlated parameter rows through the Gaussian copula."""
    p = len(model.marginals)
    try:
        chol = np.linalg.cholesky(model.correlation)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(model.correlation)
        chol = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    z = gen.standard_normal((n, p)) @ chol.T
    u = np.clip(special.ndtr(z), 1e-15, 1 - 1e-15)
    return np.column_stack([m.ppf(u[:, j]) for j, m in enumerate(model.marginals)])


def save_joint_model(model, path):
    """Write the joint model as line-oriented text (see README)."""
    with open(path, "w") as fh:
        for j, m in enumerate(model.marginals):
            label = model.labels[j] if model.labels else f"col{j}"
            params = " ".join(f"{v:.12g}" for v in m.params)
            lo, hi = m.support
            fh.write(f"marginal {label} {m.family} params {params} "
                     f"support {lo:.12g} {hi:.12g}\n")
        for row in model.correlation:
            fh.write("corr " + " ".join(f"{v:.12g}" for v in row) + "\n")
