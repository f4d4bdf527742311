"""Catalog-level spectral statistics and direct parameter extraction.

Quantiles use the median-unbiased order-statistic estimator
(numpy method "median_unbiased"), pinned so figures reproduce bit-for-bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .gm_model import energy_targets


@dataclass(frozen=True)
class SpectraMatrix:
    """log Sa values, one row per record, one column per period."""

    log_sa: np.ndarray  # (n_records, n_periods)
    periods: np.ndarray

    def __post_init__(self):
        log_sa = np.asarray(self.log_sa, dtype=float)
        periods = np.asarray(self.periods, dtype=float)
        if log_sa.ndim != 2 or log_sa.shape[1] != periods.size:
            raise ValueError("log_sa must be (n_records, n_periods)")
        if not np.all(np.isfinite(log_sa)):
            raise ValueError("log_sa contains non-finite entries")
        object.__setattr__(self, "log_sa", log_sa)
        object.__setattr__(self, "periods", periods)

    @property
    def n_records(self):
        return self.log_sa.shape[0]


def spectral_quantiles(sm, q):
    """Per-period empirical quantile of log Sa."""
    if sm.n_records < 2:
        raise DataError("need at least 2 records for quantiles")
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    return np.quantile(sm.log_sa, q, axis=0, method="median_unbiased")


def spectral_std(sm):
    """Per-period sample standard deviation of log Sa."""
    if sm.n_records < 2:
        raise DataError("need at least 2 records for a dispersion statistic")
    return sm.log_sa.std(axis=0, ddof=1)


def spectral_correlation(sm):
    """Pearson correlation of log Sa between every pair of periods."""
    if sm.n_records < 3:
        raise DataError("need at least 3 records for correlations")
    var = sm.log_sa.var(axis=0)
    if np.any(var <= 0):
        bad = sm.periods[np.nonzero(var <= 0)[0]]
        raise DataError(f"zero variance at periods {bad.tolist()}")
    rho = np.corrcoef(sm.log_sa, rowvar=False)
    rho = (rho + rho.T) / 2
    np.fill_diagonal(rho, 1.0)
    return rho


def extract_simple_params(record):
    """Log Arias intensity, effective duration and mid-energy arrival time,
    as defined by gm_model.energy_targets."""
    rec = record.to_si()
    try:
        tg = energy_targets(rec.accel, rec.dt)
    except DataError as exc:
        raise DataError(f"record {rec.id} has {exc}") from exc
    return {"log_ai": math.log(tg["ai"]), "d595": tg["d595"], "t_mid": tg["t_mid"]}
