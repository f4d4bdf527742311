"""Elastic pseudo-acceleration response spectra.

The SDOF equation u'' + 2 zeta w u' + w^2 u = f is integrated with the
piecewise-exact recurrence of Nigam & Jennings (1969) for f linear between
samples, x_k+1 = A x_k + B (f_k, f_k+1) with x = (u, u'), evaluated as
two difference equations by `recurrence`. The peak is read at least
MIN_SAMPLES_PER_CYCLE times per cycle: for short periods, also at
t_k + q dt/refine, each the exact fractional-step transition from
(u_k, u'_k, f_k, f_k+1); nothing is upsampled or approximated.

`recurrence` is the one linear-recurrence kernel of the package: these
difference equations, the high-pass filter and the temporal engine's
per-node poles (gm_model) all run through it, in scipy.signal.sosfilt's
loop loaded alone (_load_extension), so computing spectra loads numpy, not
the scipy.signal package. `row_blocks` is the one rule by which a batch is
streamed: a refined period's u, v and sub-step reads and both X1 engines'
per-node work run one row block at a time, and since rows are independent
the block size moves no bit. compute_sa and batch_sa_matrix share one
period loop.
"""

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog_io import G_ACCEL
from .errors import DataError


def _load_extension(package, name):
    """The extension module package.name, loaded alone: the package's
    __init__.py (scipy.signal's, scipy.optimize's) and scipy's array-API
    layer cost more time and memory than numpy. It is registered under its
    own name, so importing the package before or after shares the one
    module. Both modules loaded this way are private to scipy and were
    checked only on scipy 1.17.1; there is no fallback."""
    full = f"{package}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(
            full, importlib.util.find_spec(package).submodule_search_locations)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


_sosfilt = _load_extension("scipy.signal", "_sosfilt")._sosfilt


class PeriodUnderResolved(UserWarning):
    """Period shorter than 2*dt; value still computed by the exact recurrence."""


@dataclass(frozen=True)
class ResponseSpectrum:
    """Periods (s), pseudo-acceleration Sa (m/s^2) and damping ratio, as
    compute_sa builds them: periods strictly increasing, Sa >= 0, and
    under_resolved true where T < 2*dt."""

    periods: np.ndarray
    sa: np.ndarray
    damping: float = 0.05
    under_resolved: np.ndarray = None

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


_BLOCK = 1 << 16  # elements of a row block's temporaries (512 KiB)


def row_blocks(n, width):
    """Row slices of an (n, width) batch whose per-block temporaries hold
    at most _BLOCK elements (at least one row): they stay in cache and the
    allocator reuses them. Whole (n, m) temporaries made the X1 engines
    1.3-1.6x slower at n = 1000, m = 6001, and raised their peak by 1-2
    (n, m) arrays."""
    rows = max(1, _BLOCK // max(1, width))
    return [slice(i, i + rows) for i in range(0, n, rows)]


# CPUs this process may run on; a batch recursion splits its rows over them
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


@functools.cache
def _workers():
    """The module's pool of _CPUS - 1 threads, made at first use."""
    import concurrent.futures

    return concurrent.futures.ThreadPoolExecutor(max(1, _CPUS - 1))


if hasattr(os, "register_at_fork"):  # a forked child's copy has no live threads
    os.register_at_fork(after_in_child=_workers.cache_clear)


def _filter_rows(sos, x, y, state, rows):
    """Rows `rows` of recurrence's output y (n, size): x's rows, zero past
    x's end, run through the section in place."""
    m = min(x.shape[1], y.shape[1])
    y[rows, :m] = x[rows, :m]
    y[rows, m:] = 0
    _sosfilt(sos, y[rows], state[rows])


def recurrence(b, a, x, zi=None, size=None):
    """lfilter(b, a, x, zi=zi)[0] along the last axis of x (m,) or (n, m),
    real or complex, with a[0] = 1, at most two poles and two zeros, and x
    taken as 0 past its end, so a size > m extends the output: one section
    of sosfilt's loop, run in place. That loop checks no bounds, so the
    section, the output and the (n, 1, 2) state are built here as it reads
    them. The loop releases the GIL, so an (n, size) batch of at least two
    _BLOCKs of elements runs in k = min(_CPUS, n, n * size // _BLOCK)
    contiguous row shares, one on the calling thread and the others on
    _workers(); rows are independent, so the shares move no bit."""
    if len(b) > 3 or len(a) > 3:
        raise ValueError(f"{len(a) - 1} poles, {len(b) - 1} zeros: at most 2 each")
    x = np.asarray(x)
    m = x.shape[-1]
    size = m if size is None else size
    dtype = np.result_type(x, *b, *a)
    sos = np.zeros((1, 6), dtype)
    sos[0, :len(b)] = b
    sos[0, 3:3 + len(a)] = a
    y = np.empty(x.shape[:-1] + (size,), dtype)
    state = np.zeros(x.shape[:-1] + (2,), dtype)
    if zi is not None:
        state[..., :np.shape(zi)[-1]] = zi
    n = math.prod(x.shape[:-1])
    args = (sos, x.reshape(n, m), y.reshape(n, size), state.reshape(n, 1, 2))
    k = max(1, min(_CPUS, n, n * size // _BLOCK))
    shares = [slice(n * i // k, n * (i + 1) // k) for i in range(k)]
    futures = [_workers().submit(_filter_rows, *args, rows) for rows in shares[1:]]
    _filter_rows(*args, shares[0])
    for future in futures:
        future.result()
    return y


MIN_SAMPLES_PER_CYCLE = 32


def refine_factor(dt, period):
    """Points per step at which the peak of `period` is read."""
    return max(1, math.ceil(MIN_SAMPLES_PER_CYCLE * dt / period))


@functools.cache
def _plan(dt, period, damping, refine):
    """Everything peak_displacement needs of (dt, period, damping) at
    `refine` reads per step, computed once per process: the denominator a
    of the difference equations, the numerators bu, bv of u and v = u' with
    the first-sample terms zu, zv that start them at u_0 = v_0 = 0, and the
    (refine - 1, 4) sub-step matrix. Every caller shares the arrays, so
    they are read-only. Nothing is evicted, since a spectrum walks its
    periods in order and an LRU smaller than the grid would miss every
    lookup: a CLI run's cap of 4,096 periods holds 3.3 MB per dt."""
    omega = 2 * math.pi / period
    (a11, a12, a21, a22), (b11, b12, b21, b22), a = _sdof_step(omega, damping, dt)
    bu = (b12, b11 + a12 * b22 - a22 * b12, a12 * b21 - a22 * b11)
    bv = (b22, b21 + a21 * b12 - a11 * b22, a21 * b11 - a11 * b21)
    # u(t_k + w dt) = A(w dt) (u_k, v_k) + B(w dt) (f_k, (1 - w) f_k + w f_k+1)
    coef = []
    for w in (q / refine for q in range(1, refine)):
        (s11, s12, _, _), (c11, c12, _, _), _ = _sdof_step(omega, damping, w * dt)
        coef.append((s11, s12, c11 + c12 * (1 - w), c12 * w))
    arrays = (np.array([-bu[0], b11 - bu[1]]), np.array([-bv[0], b21 - bv[1]]),
              np.array(coef))
    for arr in arrays:
        arr.flags.writeable = False
    return (a, bu, bv) + arrays


def peak_displacement(accel, dt, period, damping):
    """Peak absolute SDOF relative displacement; accel may be (m,) or (n, m).
    The peak is read at the samples and, for short periods, at
    refine_factor - 1 exact fractional steps inside each step, one row
    block at a time."""
    # u of -accel is exactly -u of accel, so the peak reads accel as given
    f = np.atleast_2d(np.asarray(accel, dtype=float))
    n, m = f.shape
    refine = refine_factor(dt, period) if m > 1 else 1
    a, bu, bv, zu, zv, coef = _plan(float(dt), float(period), float(damping), refine)
    peak = np.empty(n)
    # a plain period reads u alone over the whole batch: in row blocks, 30
    # plain periods of a (100, 1301) batch took 37-44 ms against 27-31 ms
    for rows in row_blocks(n, refine * m) if refine > 1 else [slice(None)]:
        fr = f[rows]
        u = recurrence(bu, a, fr, zi=fr[:, :1] * zu)
        # max |u| without an |u| temporary; abs keeps a zero peak at +0
        peak[rows] = np.abs(np.maximum(u.max(axis=-1), -u.min(axis=-1)))
        if refine > 1:
            v = recurrence(bv, a, fr, zi=fr[:, :1] * zv)
            x = np.stack([u[:, :-1], v[:, :-1], fr[:, :-1], fr[:, 1:]])  # (4, rows, m - 1)
            sub = np.abs(coef @ x.reshape(4, -1)).reshape(refine - 1, -1, m - 1)
            peak[rows] = np.maximum(peak[rows], sub.max(axis=(0, 2)))
    return peak


def _sa_rows(accel, dt, periods, damping, increasing=False):
    """The one period loop of both spectrum entry points, after their input
    check: periods as floats, strictly increasing if asked (compute_sa's
    ResponseSpectrum needs it), and Sa (n, n_periods) of accel (m,) or
    (n, m)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    periods = np.asarray(periods, dtype=float)
    if not np.all(np.isfinite(periods) & (periods > 0)):
        raise ValueError("periods must be finite and > 0")
    if increasing and np.any(np.diff(periods) <= 0):
        raise ValueError("periods must be strictly increasing")
    f = np.atleast_2d(np.asarray(accel, dtype=float))
    sa = np.empty((f.shape[0], periods.size))
    for j, period in enumerate(periods):
        sa[:, j] = (2 * math.pi / period) ** 2 * peak_displacement(f, dt, period, damping)
    return periods, sa


def compute_sa(accel, dt, periods, damping=0.05):
    """5%-damped (by default) pseudo-acceleration spectrum of one series."""
    periods, sa = _sa_rows(accel, dt, periods, damping, increasing=True)
    under = periods < 2 * dt
    if np.any(under):
        warnings.warn(f"{int(under.sum())} periods below 2*dt={2 * dt:g} s",
                      PeriodUnderResolved, stacklevel=2)
    return ResponseSpectrum(periods=periods, sa=sa[0], damping=damping, under_resolved=under)


def batch_sa_matrix(series_matrix, dt, periods, damping=0.05):
    """Sa of every row of an (n, m) matrix; returns (n, n_periods)."""
    return _sa_rows(series_matrix, dt, periods, damping)[1]


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
