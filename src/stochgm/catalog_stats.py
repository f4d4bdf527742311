"""Catalog-level spectral statistics and direct parameter extraction.

The statistics take log Sa as an (n_records, n_periods) array, one row per
record and one column per period. Quantiles use the median-unbiased
order-statistic estimator (numpy method "median_unbiased"), pinned so
figures reproduce bit-for-bit.
"""

import math

import numpy as np

from .catalog_io import G_ACCEL
from .errors import DataError


def _checked(log_sa, least, what):
    """log_sa as a finite (n_records, n_periods) array of >= `least` rows."""
    log_sa = np.asarray(log_sa, dtype=float)
    if log_sa.ndim != 2:
        raise ValueError("log_sa must be (n_records, n_periods)")
    if not np.all(np.isfinite(log_sa)):
        raise ValueError("log_sa contains non-finite entries")
    if log_sa.shape[0] < least:
        raise DataError(f"need at least {least} records for {what}")
    return log_sa


def spectral_quantiles(log_sa, q):
    """Per-period empirical quantile of log Sa."""
    log_sa = _checked(log_sa, 2, "quantiles")
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    return np.quantile(log_sa, q, axis=0, method="median_unbiased")


def spectral_std(log_sa):
    """Per-period sample standard deviation of log Sa."""
    return _checked(log_sa, 2, "a dispersion statistic").std(axis=0, ddof=1)


def spectral_correlation(log_sa):
    """Pearson correlation of log Sa between every pair of periods."""
    log_sa = _checked(log_sa, 3, "correlations")
    # an equal-valued column, tested exactly: its var() can round to ~1e-34
    constant = np.ptp(log_sa, axis=0) == 0
    if np.any(constant):
        bad = np.nonzero(constant)[0]
        raise DataError(f"zero variance at period columns {bad.tolist()}")
    rho = np.corrcoef(log_sa, rowvar=False)
    rho = (rho + rho.T) / 2
    np.fill_diagonal(rho, 1.0)
    return rho


def extract_simple_params(record):
    """Log Arias intensity, AI = (pi/2g) int a^2 dt (m/s, trapezoid);
    effective duration d595 = t95 - t5 and mid-energy arrival time
    t_mid = t45 (s), where tq is the first time the normalized cumulative
    energy crosses q (linear interpolation)."""
    rec = record.to_si()
    a2 = rec.accel ** 2
    cum = np.concatenate([[0.0], np.cumsum((a2[1:] + a2[:-1]) / 2 * rec.dt)])
    total = cum[-1]
    if total <= 0:
        raise DataError(f"record {rec.id} has zero Arias intensity")
    t = np.arange(cum.size) * rec.dt
    t5, t45, t95 = np.interp([0.05, 0.45, 0.95], cum / total, t)
    return {"log_ai": math.log(math.pi / (2 * G_ACCEL) * total),
            "d595": t95 - t5, "t_mid": t45}
