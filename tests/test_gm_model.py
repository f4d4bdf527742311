import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import fftconvolve

from stochgm import (GMParams, apply_highpass, gm_model, highpass,
                     simulate_spectral, simulate_temporal, solve_modulator)
from stochgm.catalog_io import PARAM_KEYS
from stochgm.errors import DataError, NumericalError
from stochgm.gm_model import G_ACCEL


def measure_q2_targets(coeffs, t_total, dt=5e-4):
    """Independent quadrature oracle on the fitted q^2."""
    t = np.arange(0.0, t_total + dt / 2, dt)
    q2 = coeffs(t) ** 2
    cum = np.concatenate([[0.0], np.cumsum((q2[1:] + q2[:-1]) / 2 * dt)])
    ai = np.pi / (2 * G_ACCEL) * cum[-1]
    t5, t45, t95 = np.interp([0.05, 0.45, 0.95], cum / cum[-1], t)
    return ai, t95 - t5, t45


class TestModulator:
    def test_round_trip(self):
        c = solve_modulator(np.log(0.5), 10.0, 5.0, 40.0)
        ai, d595, t_mid = measure_q2_targets(c, 40.0)
        assert ai == pytest.approx(0.5, rel=0.01)
        assert d595 == pytest.approx(10.0, rel=0.01)
        assert t_mid == pytest.approx(5.0, rel=0.01)

    def test_ai_scaling_only_moves_a1(self):
        c1 = solve_modulator(np.log(0.5), 10.0, 5.0, 40.0)
        c2 = solve_modulator(np.log(0.5 * 4.0), 10.0, 5.0, 40.0)
        assert c2.a2 == pytest.approx(c1.a2, rel=1e-9)
        assert c2.a3 == pytest.approx(c1.a3, rel=1e-9)
        assert c2.a1 == pytest.approx(2.0 * c1.a1, rel=1e-9)

    def test_infeasible_duration(self):
        with pytest.raises(NumericalError, match="does not fit inside t_total"):
            solve_modulator(0.0, 50.0, 5.0, 40.0)

    @pytest.mark.parametrize("d595,t_mid,t_total", [(30.0, 0.5, 40.0), (5.0, 39.5, 40.0)])
    def test_no_shape_reaches_t_mid(self, d595, t_mid, t_total):
        # both are infeasible, since the span along t45 = t_mid is widest
        # at the least shape: with t45 at 0.5 s, that shape (k near 1, an
        # exponential) spans 2.5 s, not 30; with t45 at 39.5 of 40 s, it
        # (k near 64, a kernel rising to the record end) spans 1.8 s, not 5
        with pytest.raises(NumericalError, match=(
                f"no gamma modulator reproduces d595={d595}, t_mid={t_mid}, "
                f"t_total={t_total}")):
            solve_modulator(0.0, d595, t_mid, t_total)

    def test_brent_port_matches_scipy_brentq(self, monkeypatch):
        # gm_model._brentq takes scipy.optimize.brentq's steps, so the
        # coefficients are equal, not close, with brentq patched in. The
        # draws span perfbench's parameter ranges, then envelopes that peak
        # up to 0.8 of the record
        from scipy.optimize import brentq

        rng = np.random.default_rng(2024)
        draws = []
        for _ in range(60):
            s = rng.uniform(15.0, 60.0) / 25.0
            draws.append((np.log(rng.uniform(0.3, 0.7)), rng.uniform(8.0, 12.0) * s,
                          rng.uniform(4.0, 5.5) * s, 25.0 * s))
        for _ in range(30):
            t_total = rng.uniform(10.0, 80.0)
            k = math.exp(rng.uniform(math.log(1.2), math.log(60.0)))
            r = (k - 1) / (rng.uniform(0.1, 0.8) * t_total)
            t5, t45, t95 = gm_model._ai_quantile_times(k, r, t_total)
            draws.append((np.log(rng.uniform(0.3, 0.7)), t95 - t5, t45, t_total))
        ported = [solve_modulator(*d) for d in draws]
        monkeypatch.setattr(gm_model, "_brentq",
                            lambda f, a, b, **tol: brentq(f, a, b, **tol))
        assert [solve_modulator(*d) for d in draws] == ported

    @pytest.mark.parametrize("xtol", [1e-2, 1e-6, 1e-12])
    def test_brentq_takes_scipys_steps(self, xtol):
        # a loose xtol stops the search mid-path, so the root it returns
        # shows the steps taken, not only where they converge
        from scipy.optimize import brentq

        funcs = [lambda x: math.tanh(3 * (x - 0.3)) + 1e-3,
                 lambda x: (x - 0.7) ** 3 + 0.1 * (x - 0.7),
                 lambda x: math.exp(2 * x) - 3.0,
                 lambda x: x ** 9 - 0.5]
        for f in funcs:
            for a, b in ((-1.0, 2.0), (2.0, -0.5), (0.0, 1.0)):
                if np.sign(f(a)) != np.sign(f(b)):
                    assert gm_model._brentq(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol)

    @pytest.mark.parametrize("f,maxiter", [
        (lambda x: x * x + 1.0, 100),  # no sign change: scipy's ValueError
        (lambda x: x ** 9 - 0.5, 2),  # no convergence: scipy's RuntimeError
    ])
    def test_brentq_failures_are_numerical_errors(self, f, maxiter):
        with pytest.raises(NumericalError) as info:
            gm_model._brentq(f, -1.0, 2.0, xtol=1e-12, maxiter=maxiter)
        assert type(info.value) is NumericalError

    def test_late_peak_solves_with_a_large_shape(self):
        c = solve_modulator(0.0, 5.0, 30.0, 40.0)
        assert c.a2 > 150  # shape k = 2*a2 - 1 near 395
        assert np.all(np.isfinite(c(np.linspace(0.0, 40.0, 4001))))
        _, d595, t_mid = measure_q2_targets(c, 40.0)
        assert d595 == pytest.approx(5.0, rel=0.01)
        assert t_mid == pytest.approx(30.0, rel=0.01)

    def test_a1_outside_float_range(self):
        # the shape is near 1,091 and log a1 near -1,089
        with pytest.raises(NumericalError, match="is outside the float range"):
            solve_modulator(0.0, 2.0, 20.0, 40.0)

    @pytest.mark.parametrize("d595,t_mid,t_total", [
        (5.0, 3.0, 20.0), (15.0, 9.0, 40.0), (8.0, 6.0, 30.0)])
    def test_round_trip_varied(self, d595, t_mid, t_total):
        c = solve_modulator(np.log(0.2), d595, t_mid, t_total)
        _, d, tm = measure_q2_targets(c, t_total)
        assert d == pytest.approx(d595, rel=0.01)
        assert tm == pytest.approx(t_mid, rel=0.01)


class TestEngines:
    @pytest.mark.parametrize("engine", [simulate_temporal, simulate_spectral])
    def test_unit_variance(self, engine, base_params, sim_dt):
        batch = engine(base_params, sim_dt, 4000, seed=11)
        t = np.arange(batch.realizations.shape[1]) * batch.dt
        q = solve_modulator(base_params.log_ai, base_params.d595,
                            base_params.t_mid, base_params.t_total)(t)
        for probe in (3.0, 5.0, 8.0, 11.0):
            i = int(round(probe / sim_dt))
            x2 = batch.realizations[:, i] / q[i]
            assert x2.var() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("engine", [simulate_temporal, simulate_spectral])
    def test_expected_arias(self, engine, base_params, sim_dt):
        batch = engine(base_params, sim_dt, 3000, seed=5)
        ai = np.pi / (2 * G_ACCEL) * np.trapezoid(
            batch.realizations ** 2, dx=sim_dt, axis=1)
        assert ai.mean() == pytest.approx(np.exp(base_params.log_ai), rel=0.05)

    @pytest.mark.parametrize("engine", [simulate_temporal, simulate_spectral])
    def test_determinism(self, engine, base_params, sim_dt):
        b1 = engine(base_params, sim_dt, 8, seed=99)
        b2 = engine(base_params, sim_dt, 8, seed=99)
        np.testing.assert_array_equal(b1.realizations, b2.realizations)

    def test_substreams_prefix_stable(self, base_params, sim_dt):
        # first realizations do not depend on how many are drawn
        for engine in (simulate_temporal, simulate_spectral):
            b1 = engine(base_params, sim_dt, 4, seed=3)
            b2 = engine(base_params, sim_dt, 8, seed=3)
            np.testing.assert_array_equal(b1.realizations, b2.realizations[:4])

    def test_bits_do_not_depend_on_blas_threads(self):
        # the engines make no matrix product, and their recursions run in
        # sosfilt's loop, which calls no BLAS, so a seed gives the same bits
        # under any OpenBLAS thread count
        probe = textwrap.dedent("""
            import hashlib
            import numpy as np
            from stochgm import GMParams, simulate_spectral, simulate_temporal
            p = GMParams(np.log(0.5), 10.0, 5.0, 15.0, -0.2, 0.3, 40.0)
            for engine in (simulate_temporal, simulate_spectral):
                x = engine(p, 0.01, 100, seed=3).realizations
                print(hashlib.sha256(x.tobytes()).hexdigest())
        """)
        src = str(Path(gm_model.__file__).resolve().parents[1])
        digests = [subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=300, check=True,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
        assert digests[0].count("\n") == 2 and digests[0] == digests[1]

    def test_sigma_floor_hits(self, base_params, sim_dt):
        # the temporal engine's sigma is exactly 0 at t = 0 (no increment
        # has arrived yet); the spectral engine's is positive everywhere
        temporal = simulate_temporal(base_params, sim_dt, 2, seed=1)
        assert temporal.sigma_floor_hits == 1
        assert np.all(temporal.realizations[:, 0] == 0.0)
        assert simulate_spectral(base_params, sim_dt, 2, seed=1).sigma_floor_hits == 0
        assert apply_highpass(temporal, 0.5).sigma_floor_hits == 1

    def test_unstable_dt(self, base_params):
        with pytest.raises(NumericalError, match=r"omega_max\*dt = .* >= 0.5"):
            simulate_temporal(base_params, 0.05, 2, seed=0)

    def test_npz_round_trip(self, base_params, sim_dt, tmp_path):
        batch = simulate_spectral(base_params, sim_dt, 3, seed=1)
        path = tmp_path / "b.npz"
        batch.save_npz(path)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as z:
            assert set(z.files) == {"realizations", "dt", "seed", "domain_tag", "params"}
            assert z["realizations"].tobytes() == batch.realizations.tobytes()
            assert (float(z["dt"]), int(z["seed"])) == (batch.dt, batch.seed)
            assert str(z["domain_tag"]) == "spectral"

    def test_npz_params_in_field_order(self, base_params, sim_dt, tmp_path):
        """params is the GMParams fields in PARAM_KEYS order, NaN for an
        unset fc, and PARAM_KEYS is the field order itself."""
        assert [f.name for f in dataclasses.fields(GMParams)] == list(PARAM_KEYS)
        p = base_params
        for fc in (None, 0.5):
            batch = simulate_spectral(p.with_fc(fc), sim_dt, 1, seed=1)
            batch.save_npz(tmp_path / "b.npz")
            with np.load(tmp_path / "b.npz") as z:
                params = z["params"]
            expected = np.array([p.log_ai, p.d595, p.t_mid, p.omega_mid,
                                 p.omega_rate, p.zeta_f, p.t_total,
                                 np.nan if fc is None else fc])
            assert params.tobytes() == expected.tobytes()
            stored = dict(zip(PARAM_KEYS, params.tolist()))
            assert GMParams(**dict(stored, fc_hz=fc)) == batch.params


def dense_temporal_x1(params, t, dt, z):
    """Reference: the whole m x m impulse-response matrix at once."""
    omega = params.omega_at(t)
    zeta = params.zeta_f
    sq = math.sqrt(1 - zeta ** 2)
    lag = t[:, None] - t[None, :]
    np.clip(lag, 0.0, None, out=lag)
    h = (omega[None, :] / sq) * np.exp(-zeta * omega[None, :] * lag) \
        * np.sin(omega[None, :] * sq * lag)
    h[lag <= 0] = 0.0
    return (h @ (z.T * math.sqrt(dt))).T, np.sqrt((h ** 2).sum(axis=1) * dt)


def dense_spectral_x1(params, t, dt, ab):
    """Reference: the whole m x K amplitude and phase matrices at once."""
    big_k = ab.shape[2]
    dw = math.pi / (dt * big_k)
    w = dw * np.arange(1, big_k + 1)
    omega = params.omega_at(t)[:, None]
    zeta = params.zeta_f
    mag = omega ** 2 / np.sqrt((omega ** 2 - w[None, :] ** 2) ** 2
                               + (2 * zeta * omega * w[None, :]) ** 2)
    phase = w[None, :] * t[:, None]
    cmat = mag * np.cos(phase) * math.sqrt(2 * dw)
    smat = mag * np.sin(phase) * math.sqrt(2 * dw)
    x1 = cmat @ ab[:, 0, :].T + smat @ ab[:, 1, :].T
    return x1.T, np.sqrt((mag ** 2).sum(axis=1) * 2 * dw)


def spectral_x1(params, t, dt, ab):
    """The spectral engine's X1 from its noise, as simulate_spectral
    chains the two steps."""
    return gm_model._spectral_x1(params, t, dt, gm_model._spectral_coef(ab, dt))


class TestBlockedEngines:
    # the engines interpolate the oscillator in omega at Chebyshev nodes;
    # the dense references build every frozen kernel exactly
    @pytest.mark.parametrize("engine,x1_fn,dense_fn,noise_shape", [
        (simulate_temporal, gm_model._temporal_x1, dense_temporal_x1,
         lambda m, big_k: (m,)),
        (simulate_spectral, spectral_x1, dense_spectral_x1,
         lambda m, big_k: (2, big_k)),
    ], ids=["temporal", "spectral"])
    def test_blocked_matches_dense(self, base_params, sim_dt,
                                   engine, x1_fn, dense_fn, noise_shape):
        t = gm_model._time_grid(base_params, sim_dt)
        m = t.size
        big_k = math.ceil(base_params.t_total / (2 * sim_dt))
        z = gm_model._noise_matrix(7, 6, noise_shape(m, big_k))

        x1, sigma, p = x1_fn(base_params, t, sim_dt, z)
        x1_ref, sigma_ref = dense_fn(base_params, t, sim_dt, z)
        assert np.abs(x1 - x1_ref).max() <= 1e-12 * np.abs(x1_ref).max()
        assert np.abs(sigma - sigma_ref).max() <= 1e-12 * sigma_ref.max()

        batch = engine(base_params, sim_dt, 6, seed=7)
        q = solve_modulator(base_params.log_ai, base_params.d595,
                            base_params.t_mid, base_params.t_total)(t)
        ref, _ = gm_model._normalize_and_modulate(x1_ref, sigma_ref, q)
        assert np.abs(batch.realizations - ref).max() <= 1e-12 * np.abs(ref).max()
        assert batch.omega_nodes == p

    def test_normalize_and_modulate_bits(self, base_params, sim_dt):
        """Steps 2-3 in place on (n, m) give the bits of the (m, n) formula
        with a zeroed copy, and count the floored samples from one mask."""
        def copy_formula(x1, sigma, q):  # x1 (m, n)
            x2 = np.zeros_like(x1)
            ok = sigma > gm_model.SIGMA_FLOOR_REL * sigma.max()
            x2[ok] = x1[ok] / sigma[ok, None]
            return q[:, None] * x2

        t = gm_model._time_grid(base_params, sim_dt)
        z = gm_model._noise_matrix(3, 5, (t.size,))
        x1, sigma, _ = gm_model._temporal_x1(base_params, t, sim_dt, z)
        assert sigma[0] == 0.0  # no increment has arrived at t = 0
        sigma[40] = 0.5 * gm_model.SIGMA_FLOOR_REL * sigma.max()
        q = solve_modulator(base_params.log_ai, base_params.d595,
                            base_params.t_mid, base_params.t_total)(t)
        ref = copy_formula(x1.T.copy(), sigma, q).T
        x3, floor_hits = gm_model._normalize_and_modulate(x1, sigma, q)
        assert x3 is x1 and floor_hits == 2
        assert np.array_equal(x3, ref)
        assert x3.tobytes() == np.ascontiguousarray(ref).tobytes()  # zero signs too

    @pytest.mark.parametrize("engine,most", [(simulate_temporal, 2.5),
                                             (simulate_spectral, 2.5)])
    def test_peak_in_batch_arrays(self, engine, most):
        """tracemalloc peak in (n, m) float64 arrays at n = 200, m = 4,001:
        the noise and X1, or for the spectral engine its complex amplitudes
        (n, K + 1), built from the noise before X1, and X1; Steps 2-3 run in
        place on X1, which becomes the batch."""
        p = GMParams(np.log(0.5), 10.0, 5.0, 15.0, -0.2, 0.3, 20.0)
        engine(p, 0.005, 2, seed=1)  # first-call imports and caches
        tracemalloc.start()
        try:
            batch = engine(p, 0.005, 200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.realizations.shape == (200, 4001)
        assert peak <= most * batch.realizations.nbytes

    @pytest.mark.parametrize("engine", ["simulate_temporal", "simulate_spectral"])
    def test_memory_bound(self, engine):
        # m = 12001 (60 s at 0.005 s), n = 4. Built whole, the temporal
        # engine's lag and h are 2 x 12001^2 x 8 B = 2.3 GB and the spectral
        # engine's four 12001 x 6000 arrays are 2.3 GB; interpolated in
        # omega, the peak is the interpreter, numpy and a few (n, m) arrays
        probe = textwrap.dedent(f"""
            import numpy as np
            from stochgm import GMParams, {engine}
            p = GMParams(np.log(0.5), 24.0, 12.0, 15.0, -0.2, 0.3, 60.0)
            assert {engine}(p, 0.005, 4, seed=1).realizations.shape == (4, 12001)
        """)
        # Linux starts a child's ru_maxrss at the RSS of the process it was
        # forked from, so the probe runs under a small interpreter, not
        # under this (large) test process
        launcher = ("import resource, subprocess, sys; "
                    f"subprocess.run([sys.executable, '-c', {probe!r}], check=True); "
                    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        src = str(Path(gm_model.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", launcher],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=300, check=True)
        assert int(out.stdout) / 1024 < 512  # ru_maxrss is in KiB on Linux


class TestGMParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GMParams(0.0, -1.0, 5.0, 15.0, 0.0, 0.3, 25.0)
        with pytest.raises(ValueError):
            GMParams(0.0, 5.0, 30.0, 15.0, 0.0, 0.3, 25.0)
        with pytest.raises(ValueError):
            GMParams(0.0, 5.0, 5.0, 15.0, 0.0, 1.2, 25.0)
        with pytest.raises(ValueError):
            # omega goes negative before t_total
            GMParams(0.0, 5.0, 5.0, 2.0, -0.5, 0.3, 25.0)


def fft_highpass(x3, fc_hz, dt):
    """Reference for x3 of shape (n, m): the sampled kernel t*exp(-wc*t),
    truncated where it falls below 1e-8 of its peak, convolved through an
    FFT, then the centered second difference over dt^2 with z = 0 on both
    sides of the record."""
    wc = 2 * math.pi * fc_hz
    th = np.arange(math.ceil(3.6 / (fc_hz * dt)) + 2) * dt
    hf = th * np.exp(-wc * th)
    hf = hf[:np.nonzero(hf >= 1e-8 * (math.exp(-1) / wc))[0][-1] + 2]
    xp = np.concatenate([x3, np.zeros(x3.shape[:-1] + (hf.size,))], axis=-1)
    z = dt * fftconvolve(xp, hf[None, :], axes=-1)[..., :xp.shape[-1]]
    z = np.pad(z, [(0, 0), (1, 1)])
    return (z[..., 2:] - 2 * z[..., 1:-1] + z[..., :-2]) / dt ** 2


class TestHighpass:
    # simulated motions, which start and end near zero as the high-pass
    # input always does: on untapered white noise at 0.01 Hz the reference's
    # own FFT rounding reaches about 1e-5 of max|out|
    @pytest.mark.parametrize("fc,dt", [(0.01, 0.005), (0.1, 0.005), (0.5, 0.01),
                                       (0.01, 0.02), (2.0, 0.02)])
    def test_matches_fft_convolution(self, base_params, fc, dt):
        x = simulate_spectral(base_params, dt, 3, seed=4).realizations
        out, ref = highpass(x, fc, dt), fft_highpass(x, fc, dt)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_matches_extended_precision_sum(self):
        # the recursion's impulse response r*(1 - z^-1)^2 * sum (k+1) r^k z^-k,
        # summed directly in long double over the whole padded output
        fc, dt = 0.01, 0.005
        x = np.random.default_rng(1).standard_normal(300)
        out = highpass(x, fc, dt)
        r = np.exp(-2 * np.pi * np.longdouble(fc) * np.longdouble(dt))
        k = np.arange(out.size, dtype=np.longdouble)
        s = (k + 1) * r ** k
        g = r * (s - 2 * np.concatenate([[0], s[:-1]])
                 + np.concatenate([[0, 0], s[:-2]]))
        ref = np.convolve(x.astype(np.longdouble), g)[:out.size]
        assert float(np.abs(out - ref).max()) <= 1e-10 * float(np.abs(ref).max())

    def test_fc_zero_is_identity(self):
        x = np.sin(np.linspace(0, 10, 500))
        np.testing.assert_array_equal(highpass(x, 0.0, 0.01), x)

    @pytest.mark.parametrize("fc", [0.1, 0.5, 1.0])
    def test_transfer_magnitude(self, fc):
        dt = 0.01
        wc = 2 * np.pi * fc
        delta = np.zeros(64)
        delta[0] = 1.0 / dt
        h = highpass(delta, fc, dt)
        nfft = int(2 ** np.ceil(np.log2(h.size * 4)))
        mag = np.abs(np.fft.rfft(h, nfft)) * dt
        w = 2 * np.pi * np.fft.rfftfreq(nfft, dt)
        band = (w >= wc / 4) & (w <= 10 * wc)
        target = w[band] ** 2 / (w[band] ** 2 + wc ** 2)
        np.testing.assert_allclose(mag[band], target, rtol=0.02)
        # half-power point at the corner
        assert np.interp(wc, w, mag) == pytest.approx(0.5, rel=0.02)

    def test_zero_end_velocity_displacement(self, base_params, sim_dt):
        batch = apply_highpass(
            simulate_spectral(base_params, sim_dt, 20, seed=2), 0.5)
        vel = np.cumsum(batch.realizations, axis=1) * sim_dt
        disp = np.cumsum(vel, axis=1) * sim_dt
        assert np.all(np.abs(vel[:, -1]) < 1e-3 * np.abs(vel).max(axis=1))
        assert np.all(np.abs(disp[:, -1]) < 1e-3 * np.abs(disp).max(axis=1))

    def test_matrix_and_vector_agree(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 400))
        out = highpass(x, 0.3, 0.02)
        for i in range(3):
            np.testing.assert_allclose(out[i], highpass(x[i], 0.3, 0.02),
                                       atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            highpass(np.array([0.0, np.nan]), 0.5, 0.01)

    def test_kernel_cap(self):
        # the default grid's 0.01 Hz point at dt = 0.005 s (~72k samples)
        out = highpass(np.ones(10), 0.01, 0.005)
        assert np.all(np.isfinite(out))
        # ~1.8e11 samples, and a corner whose pad would divide by zero:
        # refused before anything is allocated
        for fc in (1e-9, 5e-324):
            with pytest.raises(DataError, match="high-pass pad of more than"):
                highpass(np.ones(10), fc, 0.02)

    def test_corner_below_nyquist(self):
        # Nyquist is 25 Hz at dt = 0.02 s; the pad is the extra output length
        out = highpass(np.ones(10), 24.9, 0.02)
        assert out.shape == (10 + gm_model.highpass_pad(24.9, 0.02),)
        for fc in (25.0, 900.0):
            with pytest.raises(DataError, match="Nyquist"):
                highpass(np.ones(10), fc, 0.02)
