"""Modulated filtered white-noise ground-motion simulation.

Both engines build the same pre-filter process X3:

1. filtered white noise X1, either by time-domain convolution with the
   evolutionary impulse response of a single oscillator, or by spectral
   representation with the oscillator's frequency response frozen at each
   time instant;
2. exact pointwise normalization X2 = X1 / sigma_X1(t);
3. gamma-type envelope X3 = q(t) * X2.

The high-pass stage (critically damped oscillator, corner frequency fc) is
kept separate so an fc search can reuse one X3 batch. It is one two-pole
recursion (scipy.signal.lfilter) over the zero-padded batch, so it holds
O(n * (m + pad)) memory and no filter kernel.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.signal import lfilter
from scipy.special import gammainc, gammaincinv, gammaln

from .catalog_io import G_ACCEL, PARAM_KEYS
from .errors import DataError, NumericalError

SIGMA_FLOOR_REL = 1e-6  # below this fraction of max sigma, X2 is set to 0
# elements per row block of the engines' (rows x m) or (rows x K) matrices:
# 8 MiB per float64 temporary, so engine memory is O(BLOCK_ELEMENTS + n*m)
BLOCK_ELEMENTS = 2 ** 20


@dataclass(frozen=True)
class GMParams:
    """Seven model parameters plus total duration.

    log_ai is the natural log of Arias intensity in m/s; omega_mid and
    omega_rate define the linear filter-frequency law
    omega(t) = omega_mid + omega_rate * (t - t_mid); zeta_f is the constant
    filter bandwidth; fc_hz may be None while the corner frequency is still
    being fitted.
    """

    log_ai: float
    d595: float
    t_mid: float
    omega_mid: float
    omega_rate: float
    zeta_f: float
    t_total: float
    fc_hz: float | None = None

    def __post_init__(self):
        if self.d595 <= 0:
            raise ValueError("d595 must be > 0")
        if not 0 < self.t_mid < self.t_total:
            raise ValueError("need 0 < t_mid < t_total")
        if not 0 < self.zeta_f < 1:
            raise ValueError("zeta_f must be in (0, 1)")
        if self.fc_hz is not None and self.fc_hz < 0:
            raise ValueError("fc_hz must be >= 0")
        # linear law: positivity on [0, t_total] is decided at the endpoints
        if self.omega_at(0.0) <= 0 or self.omega_at(self.t_total) <= 0:
            raise ValueError("omega(t) must stay > 0 on [0, t_total]")

    def omega_at(self, t):
        return self.omega_mid + self.omega_rate * (np.asarray(t, dtype=float) - self.t_mid)

    @property
    def omega_max(self):
        return max(float(self.omega_at(0.0)), float(self.omega_at(self.t_total)))

    def with_fc(self, fc_hz):
        return replace(self, fc_hz=fc_hz)


@dataclass(frozen=True)
class ModulatorCoeffs:
    """Coefficients of q(t) = a1 * t**(a2-1) * exp(-a3*t); solve_modulator
    fits shapes a2 > 1 only, so q(0) = 0."""

    a1: float
    a2: float
    a3: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = self.a1 * t[pos] ** (self.a2 - 1) * np.exp(-self.a3 * t[pos])
        return out


@dataclass(frozen=True)
class SimBatch:
    """n realizations of one parameter set; rows are realizations (m/s^2).

    sigma_floor_hits counts the time samples whose X2 the engine zeroed
    because sigma_X1 was at or below SIGMA_FLOOR_REL of its maximum; it is
    a run diagnostic and is not stored by save_npz.
    """

    realizations: np.ndarray  # (n, m)
    dt: float
    seed: int
    params: GMParams
    domain_tag: str  # "temporal" | "spectral"
    sigma_floor_hits: int = 0

    def save_npz(self, path):
        """Columnar binary container, stored uncompressed (float64 noise
        barely compresses); see README for the key layout. params holds
        the GMParams fields in PARAM_KEYS order, NaN for an unset fc."""
        values = [getattr(self.params, k) for k in PARAM_KEYS]
        np.savez(path, realizations=self.realizations, dt=self.dt, seed=self.seed,
                 domain_tag=self.domain_tag,
                 params=np.array([np.nan if v is None else v for v in values]))

    @classmethod
    def load_npz(cls, path):
        """Read a batch written by save_npz, stored or compressed."""
        with np.load(path) as z:
            p = dict(zip(PARAM_KEYS, (float(v) for v in z["params"])))
            if np.isnan(p["fc_hz"]):
                p["fc_hz"] = None
            return cls(realizations=z["realizations"], dt=float(z["dt"]),
                       seed=int(z["seed"]), params=GMParams(**p),
                       domain_tag=str(z["domain_tag"]))


# ---------------------------------------------------------------------------
# modulating function
# ---------------------------------------------------------------------------

def _ai_quantile_times(k, r, t_total, qs=(0.05, 0.45, 0.95)):
    """Times at which the cumulative of t**(k-1)exp(-r t) on [0, t_total]
    reaches the given fractions of its total."""
    ptot = gammainc(k, r * t_total)
    return np.array([gammaincinv(k, q * ptot) / r for q in qs])


def solve_modulator(log_ai, d595, t_mid, t_total):
    """Fit (a1, a2, a3) so q^2 reproduces the energy-arrival targets.

    q^2 is proportional to a gamma kernel with shape k = 2*a2 - 1 and rate
    r = 2*a3, truncated at t_total. Nested bracketed root-finding: for each
    candidate shape, the rate matching t95 - t5 = d595 is found by brentq;
    the outer brentq drives t45 to t_mid. a1 then scales q so that
    (pi / 2g) * integral(q^2) equals AI = exp(log_ai).
    """
    if d595 >= t_total:
        raise NumericalError(f"d595={d595} does not fit inside t_total={t_total}")
    if not 0 < t_mid < t_total:
        raise NumericalError("t_mid must lie inside (0, t_total)")

    def span_resid(r, k):
        t5, _, t95 = _ai_quantile_times(k, r, t_total)
        return (t95 - t5) - d595

    def rate_for_span(k):
        rlo, rhi = 1e-7, 1e4
        if span_resid(rlo, k) < 0:
            return None  # even the flattest member of this shape is too short
        return brentq(span_resid, rlo, rhi, args=(k,), xtol=1e-13, rtol=8.9e-16)

    def tmid_resid(logk):
        k = math.exp(logk)
        r = rate_for_span(k)
        if r is None:
            return None
        return _ai_quantile_times(k, r, t_total)[1] - t_mid

    # scan shapes (k > 1 so that a2 > 1) for a sign change, then refine
    logks = np.log(np.logspace(math.log10(1.0005), math.log10(2e4), 120))
    bracket = None
    prev = None
    for lk in logks:
        v = tmid_resid(lk)
        if v is None:
            prev = None
            continue
        if prev is not None and np.sign(v) != np.sign(prev[1]):
            bracket = (prev[0], lk)
            break
        prev = (lk, v)
    if bracket is None:
        raise NumericalError(
            f"no gamma modulator reproduces d595={d595}, t_mid={t_mid}, t_total={t_total}")
    logk = brentq(tmid_resid, *bracket, xtol=1e-12)
    k = math.exp(logk)
    r = rate_for_span(k)

    # (pi/2g) * a1^2 * int_0^T t^(k-1) e^(-rt) dt = AI
    integral = math.exp(gammaln(k) - k * math.log(r)) * gammainc(k, r * t_total)
    a1 = math.sqrt(math.exp(log_ai) * 2 * G_ACCEL / math.pi / integral)
    return ModulatorCoeffs(a1=a1, a2=(k + 1) / 2, a3=r / 2)


# ---------------------------------------------------------------------------
# white-noise substreams
# ---------------------------------------------------------------------------

def _noise_matrix(seed, n, shape_per_realization):
    """Independent standard-normal draws, one Philox substream per
    realization, so results are independent of any parallel schedule."""
    children = np.random.SeedSequence(seed).spawn(n)
    out = np.empty((n,) + shape_per_realization)
    for i, child in enumerate(children):
        gen = np.random.Generator(np.random.Philox(child))
        out[i] = gen.standard_normal(shape_per_realization)
    return out


def n_samples(params, dt):
    """Samples m of a simulation of params at dt (t = 0 .. t_total)."""
    return int(round(params.t_total / dt)) + 1


def _time_grid(params, dt):
    return np.arange(n_samples(params, dt)) * dt


def _check_dt(params, dt):
    if params.omega_max * dt >= 0.5:
        raise NumericalError(
            f"omega_max*dt = {params.omega_max * dt:.3f} >= 0.5; reduce dt")


def _sigma_ok(sigma):
    return sigma > SIGMA_FLOOR_REL * sigma.max()


def _normalize_and_modulate(x1, sigma, q):
    """Steps 2-3 shared by both engines; x1 has shape (m, n)."""
    x2 = np.zeros_like(x1)
    ok = _sigma_ok(sigma)
    x2[ok] = x1[ok] / sigma[ok, None]
    return q[:, None] * x2


def _row_blocks(m, width):
    """[i0, i1) spans of output-time rows; a block holds at most
    BLOCK_ELEMENTS elements per (rows x width) matrix, whatever n is."""
    rows = max(1, BLOCK_ELEMENTS // width)
    return [(i0, min(i0 + rows, m)) for i0 in range(0, m, rows)]


def _temporal_x1(params, t, dt, z):
    """X1 (m, n) and sigma_X1 (m,) of the time-domain engine from the
    noise z (n, m). Row i of the impulse-response matrix h[i, j] (response
    at t_i to the increment at t_j, filter frozen at t_j) is causal, so row
    block [i0, i1) needs only columns [0, i1)."""
    omega = params.omega_at(t)  # filter parameters frozen at excitation time
    zeta = params.zeta_f
    sq = math.sqrt(1 - zeta ** 2)
    zs = z.T * math.sqrt(dt)  # (m, n)
    x1 = np.empty((t.size, z.shape[0]))
    sigma = np.empty(t.size)
    for i0, i1 in _row_blocks(t.size, t.size):
        lag = t[i0:i1, None] - t[None, :i1]
        np.clip(lag, 0.0, None, out=lag)  # h = 0 for lag <= 0: sin(0) = 0
        w = omega[:i1]
        h = (w / sq) * np.exp(-zeta * w * lag) * np.sin(w * sq * lag)
        sigma[i0:i1] = np.sqrt((h ** 2).sum(axis=1) * dt)
        x1[i0:i1] = h @ zs[:i1]
    return x1, sigma


def _spectral_x1(params, t, dt, ab):
    """X1 (m, n) and sigma_X1 (m,) of the spectral engine from the noise
    ab (n, 2, K): cosine and sine amplitudes at w_k = k * dw, k = 1..K."""
    big_k = ab.shape[2]
    dw = math.pi / (dt * big_k)
    w = dw * np.arange(1, big_k + 1)
    omega = params.omega_at(t)
    zeta = params.zeta_f
    a, b = ab[:, 0, :].T, ab[:, 1, :].T
    x1 = np.empty((t.size, ab.shape[0]))
    sigma = np.empty(t.size)
    for i0, i1 in _row_blocks(t.size, big_k):
        om = omega[i0:i1, None]
        mag = om ** 2 / np.sqrt((om ** 2 - w ** 2) ** 2 + (2 * zeta * om * w) ** 2)
        sigma[i0:i1] = np.sqrt((mag ** 2).sum(axis=1) * 2 * dw)
        phase = w * t[i0:i1, None]
        x1[i0:i1] = (mag * np.cos(phase) * math.sqrt(2 * dw)) @ a \
            + (mag * np.sin(phase) * math.sqrt(2 * dw)) @ b
    return x1, sigma


def _batch(params, t, dt, seed, x1, sigma, domain_tag):
    """Steps 2-3 on X1, packed as a SimBatch of rows = realizations."""
    q = solve_modulator(params.log_ai, params.d595, params.t_mid, params.t_total)(t)
    x3 = _normalize_and_modulate(x1, sigma, q)
    return SimBatch(realizations=np.ascontiguousarray(x3.T), dt=dt, seed=seed,
                    params=params, domain_tag=domain_tag,
                    sigma_floor_hits=int(t.size - _sigma_ok(sigma).sum()))


def simulate_temporal(params, dt, n, seed):
    """Time-domain engine: convolution of white-noise increments with the
    frozen-parameter oscillator impulse response, then Steps 2-3."""
    _check_dt(params, dt)
    t = _time_grid(params, dt)
    x1, sigma = _temporal_x1(params, t, dt, _noise_matrix(seed, n, (t.size,)))
    return _batch(params, t, dt, seed, x1, sigma, "temporal")


def simulate_spectral(params, dt, n, seed):
    """Frequency-domain engine: spectral representation with the oscillator
    frequency response frozen at each output time, then Steps 2-3."""
    _check_dt(params, dt)
    t = _time_grid(params, dt)
    # K * dw = pi/dt with dw <= 2*pi/t_total
    big_k = int(math.ceil(params.t_total / (2 * dt)))
    x1, sigma = _spectral_x1(params, t, dt, _noise_matrix(seed, n, (2, big_k)))
    return _batch(params, t, dt, seed, x1, sigma, "spectral")


def simulate(params, dt, n, seed, engine="spectral"):
    """Dispatch on engine tag; fc (if set on params) is NOT applied here."""
    if engine == "temporal":
        return simulate_temporal(params, dt, n, seed)
    if engine == "spectral":
        return simulate_spectral(params, dt, n, seed)
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# high-pass filter
# ---------------------------------------------------------------------------

# the pad is the span of t*exp(-wc*t) above 1e-8 of its peak: u*exp(-u) =
# 1e-8*exp(-1) at u = wc*t = TAIL_U, i.e. -W_{-1}(-1e-8/e); about 72k
# samples for the default grid's 0.01 Hz point at dt = 0.005 s
TAIL_U = 22.5357852450643
MAX_KERNEL_SAMPLES = 2 ** 20


def highpass_pad(fc_hz, dt):
    """Zero samples highpass appends at corner fc_hz (Hz) and step dt (s):
    floor(TAIL_U / (wc*dt)) + 2, or 0 for fc_hz = 0. A corner at or above
    the Nyquist frequency 1/(2*dt), or so low that the pad would exceed
    MAX_KERNEL_SAMPLES, is a DataError."""
    if fc_hz == 0:
        return 0
    if fc_hz >= 0.5 / dt:
        raise DataError(f"fc = {fc_hz:g} Hz is at or above the Nyquist frequency "
                        f"{0.5 / dt:g} Hz at dt = {dt:g} s")
    wc_dt = 2 * math.pi * fc_hz * dt
    if wc_dt * (MAX_KERNEL_SAMPLES - 1) <= TAIL_U:
        raise DataError(f"fc = {fc_hz:g} Hz at dt = {dt:g} s needs a high-pass "
                        f"kernel of more than {MAX_KERNEL_SAMPLES} samples")
    return math.floor(TAIL_U / wc_dt) + 2


def highpass(x3, fc_hz, dt):
    """Apply the critically damped high-pass filter along the last axis.

    The input is zero-padded by highpass_pad(fc_hz, dt) samples and run
    through the two-pole recursion r*(1 - z^-1)^2 / (1 - r*z^-1)^2 with
    r = exp(-wc*dt): the exact z-transform of dt * (x conv t*exp(-wc*t))
    followed by the centered second difference over dt^2, i.e. the transfer
    (iw)^2/(iw + wc)^2. fc_hz = 0 bypasses the filter entirely. The output
    is longer than the input by the pad, so the motion settles to zero
    velocity and displacement. A corner that highpass_pad refuses is a
    DataError.
    """
    x3 = np.asarray(x3, dtype=float)
    if not np.all(np.isfinite(x3)):
        raise ValueError("highpass input contains non-finite values")
    if fc_hz < 0:
        raise ValueError("fc_hz must be >= 0")
    if fc_hz == 0:
        return x3.copy()
    pad = np.zeros(x3.shape[:-1] + (highpass_pad(fc_hz, dt),))
    r = math.exp(-2 * math.pi * fc_hz * dt)
    return lfilter([r, -2 * r, r], [1.0, -2 * r, r * r],
                   np.concatenate([x3, pad], axis=-1), axis=-1)


def apply_highpass(batch, fc_hz):
    """High-pass every realization of a batch; returns a new SimBatch."""
    return replace(batch, realizations=highpass(batch.realizations, fc_hz, batch.dt),
                   params=batch.params.with_fc(fc_hz))
