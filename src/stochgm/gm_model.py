"""Modulated filtered white-noise ground-motion simulation.

Both engines build the same pre-filter process X3:

1. filtered white noise X1, either by time-domain convolution with the
   evolutionary impulse response of a single oscillator, or by spectral
   representation with the oscillator's frequency response frozen at each
   time instant;
2. exact pointwise normalization X2 = X1 / sigma_X1(t);
3. gamma-type envelope X3 = q(t) * X2.

Both engines interpolate the oscillator in omega at p Chebyshev nodes
(_node_bases) and run one exact recursion (temporal) or one inverse FFT
(spectral) per node: O(p * n * m) work and O(n * m + p * K) memory, each
node's temporaries one row block (resp_spectrum.row_blocks) at a time. No
matrix product is left, and each recursion runs in sosfilt's loop, which
calls no BLAS, so the bits do not depend on the BLAS thread count.

The high-pass stage (critically damped oscillator, corner frequency fc) is
kept separate so an fc search can reuse one X3 batch. It is one two-pole
recursion (resp_spectrum.recurrence) over the batch extended by its
zero pad, so it holds O(n * (m + pad)) memory and no filter kernel.
"""

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog_io import G_ACCEL, PARAM_KEYS, GMParams
from .errors import DataError, NumericalError
from .resp_spectrum import _load_extension, recurrence, row_blocks

SIGMA_FLOOR_REL = 1e-6  # below this fraction of max sigma, X2 is set to 0
# target Chebyshev tail of the engines' interpolation in omega, relative
NODE_TOL = 1e-14
LOG_FLOAT_RANGE = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
# scipy.optimize.brentq's loop and three of scipy.special's ufuncs, without
# either package; loaded here, not at the first solve
_zeros = _load_extension("scipy.optimize", "_zeros", "_brentq")
_special = _load_extension("scipy.special", "_special_ufuncs",
                           "gammainc", "gammaincinv", "gammaln")
gammainc, gammaincinv, gammaln = _special.gammainc, _special.gammaincinv, _special.gammaln


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
        out[pos] = np.exp(math.log(self.a1) + (self.a2 - 1) * np.log(t[pos])
                          - self.a3 * t[pos])
        return out


@dataclass(frozen=True)
class SimBatch:
    """n realizations of one parameter set; rows are realizations (m/s^2).

    sigma_floor_hits counts the time samples whose X2 the engine zeroed
    because sigma_X1 was at or below SIGMA_FLOOR_REL of its maximum, and
    omega_nodes the interpolation nodes in omega the engine used (1 for a
    constant filter frequency); both are run diagnostics and are not
    stored by save_npz.
    """

    realizations: np.ndarray  # (n, m)
    dt: float
    seed: int | tuple  # the entropy of the noise's numpy SeedSequence
    params: GMParams
    domain_tag: str  # "temporal" | "spectral"
    sigma_floor_hits: int = 0
    omega_nodes: int = 1

    def save_npz(self, path):
        """Columnar binary container, stored uncompressed (float64 noise
        barely compresses); see README for the key layout. params holds
        the GMParams fields in PARAM_KEYS order, NaN for an unset fc."""
        values = [getattr(self.params, k) for k in PARAM_KEYS]
        np.savez(path, realizations=self.realizations, dt=self.dt, seed=self.seed,
                 domain_tag=self.domain_tag,
                 params=np.array([np.nan if v is None else v for v in values]))


# ---------------------------------------------------------------------------
# modulating function
# ---------------------------------------------------------------------------

def _ai_quantile_times(k, r, t_total, qs=(0.05, 0.45, 0.95)):
    """Times at which the cumulative of t**(k-1)exp(-r t) on [0, t_total]
    reaches the given fractions of its total."""
    ptot = gammainc(k, r * t_total)
    return [gammaincinv(k, q * ptot) / r for q in qs]


def _brentq(f, xpre, xcur, xtol, rtol=4 * np.finfo(float).eps, maxiter=100):
    """A root of f between xpre and xcur, where f changes sign, by Brent's
    method (Brent 1973, ch. 4) in scipy.optimize.brentq's own C loop: the
    same f gives the same iterates and the same root. No sign change and
    no convergence in maxiter steps are NumericalErrors."""
    try:
        return _zeros._brentq(f, xpre, xcur, xtol, rtol, maxiter, (), False, True)
    except (ValueError, RuntimeError) as exc:
        raise NumericalError(f"Brent's method between {xpre} and {xcur}: {exc}") from exc


def solve_modulator(log_ai, d595, t_mid, t_total):
    """Fit (a1, a2, a3) so q^2 reproduces the energy-arrival targets.

    q^2 is proportional to a gamma kernel with shape k = 2*a2 - 1 and rate
    r = 2*a3, truncated at t_total. An inner Brent root (_brentq) finds the
    rate with t45 = t_mid for a shape: t45 falls in r, since the truncated
    kernels t**(k-1) * exp(-r*t) are ordered by likelihood ratio. An outer
    one finds the shape with t95 - t5 = d595 along that curve, from the
    least shape whose t45 reaches t_mid up to 2e4. Both brackets are known
    before any evaluation. That the span falls in k along the curve is not
    proven; test_modulator_reaches_late_peaks checks it. a1 then scales q,
    in log space, so that (pi / 2g) * integral(q^2) equals exp(log_ai).
    """
    if d595 >= t_total:
        raise NumericalError(f"d595={d595} does not fit inside t_total={t_total}")
    if not 0 < t_mid < t_total:
        raise NumericalError("t_mid must lie inside (0, t_total)")
    if log_ai > LOG_FLOAT_RANGE[1]:
        raise NumericalError(f"AI = exp(log_ai={log_ai}) is outside the float range")

    @functools.cache
    def rate_for_tmid(k):
        def resid(logr):
            return _ai_quantile_times(k, math.exp(logr), t_total, (0.45,))[0] - t_mid
        # by that order, t45 >= 0.45**(1/(k - r*t_total)) * t_total at lo,
        # and t45 < t_mid / 2 at hi
        lo, hi = np.log(gammaincinv(k, [1e-300, 0.45]) / [t_total, t_mid / 2])
        return math.exp(_brentq(resid, lo, hi, xtol=1e-13))

    def span_resid(logk):
        k = math.exp(logk)
        t5, t95 = _ai_quantile_times(k, rate_for_tmid(k), t_total, (0.05, 0.95))
        return (t95 - t5) - d595

    # 0.45**(1/k) * t_total > t_mid from k_least on; from k_lo on, lo's bound
    # reaches t_mid too, while k_lo <= 2 * k_least (t_mid < ~0.9995 t_total)
    k_least = max(1.0005, math.log(0.45) / math.log(t_mid / t_total)) * (1 + 1e-6)
    k_lo = k_least + gammaincinv(2 * k_least, 1e-300)
    ends = math.log(k_lo), math.log(2e4)
    if k_lo > 2 * k_least or span_resid(ends[0]) < 0 or span_resid(ends[1]) > 0:
        raise NumericalError(
            f"no gamma modulator reproduces d595={d595}, t_mid={t_mid}, t_total={t_total}")
    k = math.exp(_brentq(span_resid, *ends, xtol=1e-12))
    r = rate_for_tmid(k)

    # (pi/2g) * a1^2 * int_0^T t^(k-1) e^(-rt) dt = AI
    log_integral = gammaln(k) - k * math.log(r) + math.log(gammainc(k, r * t_total))
    log_a1 = (log_ai + math.log(2 * G_ACCEL / math.pi) - log_integral) / 2
    if not LOG_FLOAT_RANGE[0] < log_a1 < LOG_FLOAT_RANGE[1]:
        raise NumericalError(f"a1 = exp({log_a1:.6g}) for d595={d595}, t_mid={t_mid}, "
                             f"t_total={t_total} is outside the float range")
    return ModulatorCoeffs(a1=math.exp(log_a1), a2=(k + 1) / 2, a3=r / 2)


@functools.cache
def _modulator(log_ai, d595, t_mid, t_total):
    """solve_modulator, once per parameter set and process: the CLI solves
    each entry's modulator to check it, and the engine's Steps 2-3 reuse
    that solve."""
    return solve_modulator(log_ai, d595, t_mid, t_total)


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


def _normalize_and_modulate(x1, sigma, q):
    """Steps 2-3 of both engines in place on x1 (n, m): x1 / sigma, 0 where
    sigma <= SIGMA_FLOOR_REL * max(sigma), then * q; and that floor's count."""
    ok = sigma > SIGMA_FLOOR_REL * sigma.max()
    np.divide(x1, sigma, out=x1, where=ok)
    x1[:, ~ok] = 0.0
    x1 *= q
    return x1, int(ok.size - np.count_nonzero(ok))


def _node_bases(omega, zeta):
    """Yield each node w_p in omega with its barycentric Lagrange basis
    l_p(omega) (m,), exactly 1 or 0 where omega equals a node (Berrut &
    Trefethen 2004). The nodes are p Chebyshev points of the second kind on
    [lo, hi] = [min omega, max omega], with weights (-1)^p halved at the
    ends. Both kernels, h(tau; w) for every tau >= 0 and |H(w_k; w)|
    (branch points at w_k*(sqrt(1-zeta^2) +- i*zeta)), are bounded inside
    the cone |Im w| < zeta/sqrt(1-zeta^2) * Re w. The largest Bernstein
    ellipse of [lo, hi] in it has sinh(eta) = 2*zeta*sqrt(lo*hi)/(hi - lo),
    so the error falls as exp(-eta*p): p = ceil(ln(1/NODE_TOL) / eta) + 1,
    1 for a constant omega. Where p reaches the count of distinct omega
    values, those values are the nodes, with unit weights, and the
    interpolant is exact."""
    lo, hi = float(omega.min()), float(omega.max())
    nodes, weights = np.array([lo]), np.ones(1)
    if hi != lo:
        eta = math.asinh(2 * zeta * math.sqrt(lo * hi) / (hi - lo))
        p = math.ceil(math.log(1 / NODE_TOL) / eta) + 1
        nodes = np.unique(omega)
        weights = np.ones(nodes.size)
        if p < nodes.size:
            x = np.cos(math.pi * np.arange(p) / (p - 1))
            nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            weights = (-1.0) ** np.arange(p)
            weights[[0, -1]] /= 2
    with np.errstate(divide="ignore"):  # infinite terms at the nodes
        den = sum(w / (omega - x) for x, w in zip(nodes, weights))
    for x, w in zip(nodes, weights):
        with np.errstate(divide="ignore", invalid="ignore"):
            ell = w / (omega - x) / den
        ell[omega == x] = 1.0
        yield x, ell


def _temporal_x1(params, t, dt, z):
    """X1 (n, m), sigma_X1 (m,) and node count p of the time-domain engine
    from the noise z (n, m), the oscillator frozen at the excitation time t_j.

    h(tau; w_j) = sum_p l_p(w_j) h(tau; w_p), and node p's sampled
    response h(k*dt; w_p) = c Im(lam^k), c = w_p/sqrt(1-zeta^2), lam =
    exp((-zeta + i*sqrt(1-zeta^2))*w_p*dt), is one complex pole run over
    l_p(w_j)*z_j*sqrt(dt). The real pair (1, -2 Re lam, |lam|^2) would move
    the pole angle by eps/(w_p*dt) in rounding, a drift of 1.2e-12 of
    max|x1| at w*dt = 0.01. h^2(k*dt; w_p) = c^2 rho^k sin^2(k*theta),
    rho = |lam|^2, theta = arg lam, is the cascade c^2 rho sin^2(theta)
    (z^-1 + rho z^-2) / ((1 - rho/z)(1 - lam^2/z)(1 - conj(lam)^2/z)) run
    over l_p; the difference rho^k - Re lam^2k would lose eps/theta^2 at
    short lags. h(0) = 0, so sigma is exactly 0 at t = 0."""
    zeta = params.zeta_f
    sq = math.sqrt(1 - zeta ** 2)
    x1 = np.zeros(z.shape)
    var = np.zeros(t.size)
    # filter parameters frozen at excitation time
    for p, (w, ell) in enumerate(_node_bases(params.omega_at(t), zeta), 1):
        lam = cmath.exp(complex(-zeta, sq) * w * dt)
        b = [math.sqrt(dt) * w / sq]
        for rows in row_blocks(*z.shape):
            x1[rows] += recurrence(b, [1.0, -lam], ell * z[rows]).imag
        rho, mu = abs(lam) ** 2, lam * lam
        g = dt * (w / sq) ** 2 * rho * math.sin(w * sq * dt) ** 2
        h2 = recurrence([0.0, g, g * rho], [1.0, -rho], ell)
        for pole in (mu, mu.conjugate()):
            h2 = recurrence([1.0], [1.0, -pole], h2)
        var += h2.real
    return x1, np.sqrt(np.maximum(var, 0.0)), p


def _spectral_coef(ab, dt):
    """The spectral engine's inverse-FFT input (n, K + 1) from the noise ab
    (n, 2, K), cosine and sine amplitudes at w_k = k * dw, k = 1..K:
    (a - i*b) * K * sqrt(2*dw), 0 at bin 0. Its Nyquist bin holds 2*a_K:
    the sine term vanishes there, and irfft weighs that bin once. A step of
    its own, so the noise is freed before the engine's per-node loop."""
    n, _, big_k = ab.shape
    coef = np.zeros((n, big_k + 1), dtype=complex)
    dw = math.pi / (dt * big_k)
    scale = big_k * math.sqrt(2 * dw)
    np.multiply(ab[:, 0, :], scale, out=coef.real[:, 1:])
    np.multiply(ab[:, 1, :], -scale, out=coef.imag[:, 1:])
    coef[:, -1] = 2 * coef[:, -1].real
    return coef


def _spectral_x1(params, t, dt, coef):
    """X1 (n, m), sigma_X1 (m,) and node count p of the spectral engine from
    coef (n, K + 1) of _spectral_coef, the oscillator frozen at the output
    time t_i.

    |H(w_k; w_i)| = sum_p l_p(w_i) |H(w_k; w_p)| and w_k*t_i = pi*k*i/K,
    so each node is one inverse FFT of length 2K, periodic in i. sigma^2
    interpolates 2*dw*sum_k |H(w_k; w_p)|^2."""
    n, big_k = coef.shape[0], coef.shape[1] - 1
    m = t.size
    dw = math.pi / (dt * big_k)
    wk = dw * np.arange(big_k + 1)  # bin 0 carries no noise
    zeta = params.zeta_f
    x1 = np.zeros((n, m))
    var = np.zeros(m)
    for p, (w, ell) in enumerate(_node_bases(params.omega_at(t), zeta), 1):
        mag = w ** 2 / np.sqrt((w ** 2 - wk ** 2) ** 2 + (2 * zeta * w * wk) ** 2)
        var += ell * (2 * dw * (mag[1:] ** 2).sum())
        for rows in row_blocks(n, m):
            y = np.fft.irfft(coef[rows] * mag, n=2 * big_k, axis=-1)
            for i0 in range(0, m, 2 * big_k):  # m <= 2K + 1: one wrapped sample
                i1 = min(m, i0 + 2 * big_k)
                x1[rows, i0:i1] += ell[i0:i1] * y[:, :i1 - i0]
    return x1, np.sqrt(var), p


def _batch(params, t, dt, seed, domain_tag, x1, sigma, p):
    """Steps 2-3 on X1 (n, m) in place, packed as a SimBatch."""
    q = _modulator(params.log_ai, params.d595, params.t_mid, params.t_total)(t)
    x3, floor_hits = _normalize_and_modulate(x1, sigma, q)
    return SimBatch(realizations=x3, dt=dt, seed=seed, params=params, domain_tag=domain_tag,
                    sigma_floor_hits=floor_hits, omega_nodes=p)


def simulate_temporal(params, dt, n, seed):
    """Time-domain engine: convolution of white-noise increments with the
    frozen-parameter oscillator impulse response, then Steps 2-3."""
    _check_dt(params, dt)
    t = _time_grid(params, dt)
    return _batch(params, t, dt, seed, "temporal",
                  *_temporal_x1(params, t, dt, _noise_matrix(seed, n, (t.size,))))


def simulate_spectral(params, dt, n, seed):
    """Frequency-domain engine: spectral representation with the oscillator
    frequency response frozen at each output time, then Steps 2-3."""
    _check_dt(params, dt)
    t = _time_grid(params, dt)
    # K * dw = pi/dt with dw <= 2*pi/t_total
    big_k = int(math.ceil(params.t_total / (2 * dt)))
    return _batch(params, t, dt, seed, "spectral",
                  *_spectral_x1(params, t, dt,
                                _spectral_coef(_noise_matrix(seed, n, (2, big_k)), dt)))


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
MAX_PAD_SAMPLES = 2 ** 20


def highpass_pad(fc_hz, dt):
    """Zero samples highpass appends at corner fc_hz (Hz) and step dt (s):
    floor(TAIL_U / (wc*dt)) + 2, or 0 for fc_hz = 0. A corner at or above
    the Nyquist frequency 1/(2*dt), or so low that the pad would exceed
    MAX_PAD_SAMPLES, is a DataError."""
    if fc_hz == 0:
        return 0
    if fc_hz >= 0.5 / dt:
        raise DataError(f"fc = {fc_hz:g} Hz is at or above the Nyquist frequency "
                        f"{0.5 / dt:g} Hz at dt = {dt:g} s")
    wc_dt = 2 * math.pi * fc_hz * dt
    if wc_dt * (MAX_PAD_SAMPLES - 1) <= TAIL_U:
        raise DataError(f"fc = {fc_hz:g} Hz at dt = {dt:g} s needs a high-pass "
                        f"pad of more than {MAX_PAD_SAMPLES} samples")
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
    size = x3.shape[-1] + highpass_pad(fc_hz, dt)
    r = math.exp(-2 * math.pi * fc_hz * dt)
    return recurrence([r, -2 * r, r], [1.0, -2 * r, r * r], x3, size=size)


def apply_highpass(batch, fc_hz):
    """High-pass every realization of a batch; returns a new SimBatch."""
    return replace(batch, realizations=highpass(batch.realizations, fc_hz, batch.dt),
                   params=batch.params.with_fc(fc_hz))
