"""Elastic pseudo-acceleration response spectra.

The SDOF relative-displacement equation is integrated with the segment-exact
recurrence for piecewise-linear base acceleration. The 2x2 state recurrence
is reduced to an equivalent second-order difference equation and evaluated
with scipy.signal.lfilter, which is exact for the stored representation and
vectorizes over realizations.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .catalog_io import G_ACCEL
from .errors import DataError


class PeriodUnderResolved(UserWarning):
    """Period shorter than 2*dt; value still computed by the exact recurrence."""


@dataclass(frozen=True)
class ResponseSpectrum:
    """Periods (s), pseudo-acceleration Sa (m/s^2) and damping ratio."""

    periods: np.ndarray
    sa: np.ndarray
    damping: float = 0.05
    under_resolved: np.ndarray = field(default=None)

    def __post_init__(self):
        periods = np.asarray(self.periods, dtype=float)
        sa = np.asarray(self.sa, dtype=float)
        if periods.shape != sa.shape:
            raise ValueError("periods and sa must have matching shapes")
        if np.any(np.diff(periods) <= 0):
            raise ValueError("periods must be strictly increasing")
        if np.any(sa < 0):
            raise ValueError("Sa must be nonnegative")
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "sa", sa)
        if self.under_resolved is None:
            object.__setattr__(self, "under_resolved", np.zeros(periods.shape, bool))

    @property
    def sa_g(self):
        return self.sa / G_ACCEL


def standard_period_grid(n=100, lo=0.05, hi=10.0):
    """Logarithmically spaced period grid, default 100 points on [0.05, 10] s."""
    return np.logspace(math.log10(lo), math.log10(hi), n)


def _sdof_transition(omega, zeta, dt):
    """Exact state transition A and load matrix B for one time step with
    linearly interpolated forcing f (equation u'' + 2 zeta w u' + w^2 u = f)."""
    wd = omega * math.sqrt(1 - zeta ** 2)
    e = math.exp(-zeta * omega * dt)
    c, s = math.cos(wd * dt), math.sin(wd * dt)
    zs = zeta / math.sqrt(1 - zeta ** 2)
    A = np.array([[e * (c + zs * s), e * s / wd],
                  [-omega / math.sqrt(1 - zeta ** 2) * e * s, e * (c - zs * s)]])
    w2, w3 = omega ** 2, omega ** 3
    B = np.empty((2, 2))
    for col, (f0, f1) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        slope = (f1 - f0) / dt
        # particular solution u_p = (f0 + slope*t)/w^2 - 2 zeta slope / w^3
        up0 = np.array([f0 / w2 - 2 * zeta * slope / w3, slope / w2])
        up1 = np.array([f1 / w2 - 2 * zeta * slope / w3, slope / w2])
        B[:, col] = up1 - A @ up0
    return A, B


def _sdof_filter_coeffs(omega, zeta, dt):
    """ARMA form of the exact recurrence plus the initial filter state that
    reproduces u_0 = v_0 = 0 for a forcing with nonzero first sample."""
    A, B = _sdof_transition(omega, zeta, dt)
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B
    b = np.array([b12, b11 + a12 * b22 - a22 * b12, a12 * b21 - a22 * b11])
    a = np.array([1.0, -(a11 + a22), a11 * a22 - a12 * a21])
    return b, a, b11


MIN_SAMPLES_PER_CYCLE = 32


def _upsample_linear(f, refine):
    """Insert refine-1 linearly interpolated points per segment (last axis).

    The stored signal is piecewise linear, so this does not change the
    continuous excitation; it only lets the peak be read more often.
    """
    steps = np.arange(refine) / refine
    seg = f[..., :-1, None] + np.diff(f, axis=-1)[..., None] * steps
    out = seg.reshape(f.shape[:-1] + ((f.shape[-1] - 1) * refine,))
    return np.concatenate([out, f[..., -1:]], axis=-1)


def peak_displacement(accel, dt, period, damping):
    """Peak absolute SDOF relative displacement; accel may be (m,) or (n, m).

    Short periods are integrated on an internal subdivision of the time
    step so the peak is sampled at least MIN_SAMPLES_PER_CYCLE times per
    cycle; the recurrence stays exact for the piecewise-linear excitation.
    """
    accel = np.atleast_2d(np.asarray(accel, dtype=float))
    refine = max(1, math.ceil(MIN_SAMPLES_PER_CYCLE * dt / period))
    f = -accel  # base-excitation sign; irrelevant to the peak magnitude
    if refine > 1:
        f = _upsample_linear(f, refine)
        dt = dt / refine
    omega = 2 * math.pi / period
    b, a, b11 = _sdof_filter_coeffs(omega, damping, dt)
    zi = np.stack([-b[0] * f[:, 0], (b11 - b[1]) * f[:, 0]], axis=-1)
    u, _ = lfilter(b, a, f, axis=-1, zi=zi)
    return np.max(np.abs(u), axis=-1)


def compute_sa(accel, dt, periods, damping=0.05):
    """5%-damped (by default) pseudo-acceleration spectrum of one series."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    periods = np.asarray(periods, dtype=float)
    if np.any(periods <= 0):
        raise ValueError("periods must be > 0")

    under = periods < 2 * dt
    if np.any(under):
        warnings.warn(f"{int(under.sum())} periods below 2*dt={2 * dt:g} s",
                      PeriodUnderResolved, stacklevel=2)
    sa = np.empty_like(periods)
    for j, period in enumerate(periods):
        sa[j] = (2 * math.pi / period) ** 2 * peak_displacement(accel, dt, period, damping)[0]
    return ResponseSpectrum(periods=periods, sa=sa, damping=damping, under_resolved=under)


def batch_sa_matrix(series_matrix, dt, periods, damping=0.05):
    """Sa of every row of an (n, m) matrix; returns (n, n_periods)."""
    series_matrix = np.asarray(series_matrix, dtype=float)
    periods = np.asarray(periods, dtype=float)
    out = np.empty((series_matrix.shape[0], periods.size))
    for j, period in enumerate(periods):
        out[:, j] = (2 * math.pi / period) ** 2 * peak_displacement(
            series_matrix, dt, period, damping)
    return out


def log_sa(sa):
    """Natural log of one spectrum (n_periods,) or of one row per series
    (n, n_periods). A zero Sa, from a series with no motion, has no log:
    it is a DataError."""
    sa = np.asarray(sa, dtype=float)
    zero = sa == 0
    if np.any(zero):
        if sa.ndim == 1:
            raise DataError(f"zero Sa at {int(zero.sum())} of {sa.size} periods")
        bad = np.nonzero(zero.any(axis=1))[0]
        raise DataError(f"zero Sa in realizations {bad.tolist()}")
    return np.log(sa)


def batch_log_sa(batch, periods, damping=0.05):
    """Natural-log Sa matrix of a SimBatch; row i is realization i."""
    if batch.realizations.shape[0] == 0:
        raise ValueError("empty batch")
    return log_sa(batch_sa_matrix(batch.realizations, batch.dt, periods, damping))
