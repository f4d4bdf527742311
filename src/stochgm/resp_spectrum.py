"""Elastic pseudo-acceleration response spectra.

The SDOF equation u'' + 2 zeta w u' + w^2 u = f is integrated with the
piecewise-exact recurrence of Nigam & Jennings (1969) for f linear between
samples, x_k+1 = A x_k + B (f_k, f_k+1) with x = (u, u'), evaluated with
scipy.signal.lfilter. The peak is read at least MIN_SAMPLES_PER_CYCLE
times per cycle: for short periods, also at t_k + q dt/refine, each the
exact fractional-step transition from (u_k, u'_k, f_k, f_k+1); nothing
is upsampled or approximated.
"""

import cmath
import functools
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


# 1/(j+2)!, j = 0..14: the Taylor series of phi2 to rounding for |z| <= 1/2
_PHI2_TAYLOR = tuple(1.0 / math.factorial(j + 2) for j in range(15))


def _sdof_step(omega, zeta, dt):
    """Exact transition A = (a11, a12, a21, a22) and load matrix
    B = (b11, b12, b21, b22) of one step, x(dt) = A x(0) + B (f(0), f(dt))
    for x = (u, u') and f linear over the step, and the denominator
    (1, -tr A, det A) of its difference equations. With z = lam dt, lam the
    system's eigenvalue, A is e^z and B's columns dt (phi1 - phi2)(z) and
    dt phi2(z), phi1 = (e^z - 1)/z and phi2 = (phi1 - 1)/z, each taken as
    an imaginary part; a Taylor series keeps B exact where omega dt << 1."""
    wd = omega * math.sqrt(1 - zeta ** 2)
    lam = complex(-zeta * omega, wd)
    z = lam * dt
    if abs(z) > 0.5:
        p1 = (cmath.exp(z) - 1) / z
        p2 = (p1 - 1) / z
    else:
        p2 = functools.reduce(lambda acc, c: acc * z + c, _PHI2_TAYLOR[::-1])
        p1 = 1 + z * p2
    ez = 1 + z * p1
    a12 = ez.imag / wd
    return ((-(lam.conjugate() * ez).imag / wd, a12, -omega ** 2 * a12,
             (lam * ez).imag / wd),
            (dt * (p1 - p2).imag / wd, dt * p2.imag / wd,
             dt * (lam * (p1 - p2)).imag / wd, dt * (lam * p2).imag / wd),
            (1.0, -2 * ez.real, math.exp(2 * z.real)))


MIN_SAMPLES_PER_CYCLE = 32
_SUB_BLOCK = 1 << 16  # sub-step values computed at once (512 KiB)


def refine_factor(dt, period):
    """Points per step at which the peak of `period` is read."""
    return max(1, math.ceil(MIN_SAMPLES_PER_CYCLE * dt / period))


def peak_displacement(accel, dt, period, damping):
    """Peak absolute SDOF relative displacement; accel may be (m,) or (n, m).
    The peak is read at the samples and, for short periods, at
    refine_factor - 1 exact fractional steps inside each step."""
    f = -np.atleast_2d(np.asarray(accel, dtype=float))  # sign: irrelevant to the peak
    omega = 2 * math.pi / period
    (a11, a12, a21, a22), (b11, b12, b21, b22), a = _sdof_step(omega, damping, dt)
    # u and v = u' as difference equations over a, started at u_0 = v_0 = 0
    bu = (b12, b11 + a12 * b22 - a22 * b12, a12 * b21 - a22 * b11)
    u = lfilter(bu, a, f, zi=f[:, :1] * [-bu[0], b11 - bu[1]])[0]
    peak = np.abs(u).max(axis=-1)
    refine = refine_factor(dt, period)
    if refine == 1 or f.shape[1] < 2:
        return peak
    bv = (b22, b21 + a21 * b12 - a11 * b22, a21 * b11 - a11 * b21)
    v = lfilter(bv, a, f, zi=f[:, :1] * [-bv[0], b21 - bv[1]])[0]
    # u(t_k + w dt) = A(w dt) (u_k, v_k) + B(w dt) (f_k, (1 - w) f_k + w f_k+1)
    coef = []
    for w in (q / refine for q in range(1, refine)):
        (s11, s12, _, _), (c11, c12, _, _), _ = _sdof_step(omega, damping, w * dt)
        coef.append((s11, s12, c11 + c12 * (1 - w), c12 * w))
    coef = np.array(coef)
    x = np.stack([u[:, :-1], v[:, :-1], f[:, :-1], f[:, 1:]])  # (4, n, m - 1)
    rows = max(1, _SUB_BLOCK // ((refine - 1) * x.shape[2]))
    for i in range(0, x.shape[1], rows):
        sub = np.abs(coef @ x[:, i:i + rows].reshape(4, -1))
        peak[i:i + rows] = np.maximum(peak[i:i + rows], sub.reshape(
            refine - 1, -1, x.shape[2]).max(axis=(0, 2)))
    return peak


def _checked_periods(dt, periods, damping):
    """The input check of both spectrum entry points; periods as floats."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    periods = np.asarray(periods, dtype=float)
    if not np.all(np.isfinite(periods) & (periods > 0)):
        raise ValueError("periods must be finite and > 0")
    return periods


def compute_sa(accel, dt, periods, damping=0.05):
    """5%-damped (by default) pseudo-acceleration spectrum of one series."""
    periods = _checked_periods(dt, periods, damping)
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
    periods = _checked_periods(dt, periods, damping)
    series_matrix = np.asarray(series_matrix, dtype=float)
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
