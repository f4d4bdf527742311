import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import fftconvolve

from stochgm import (GMParams, apply_highpass, gm_model, highpass,
                     simulate_spectral, simulate_temporal, solve_modulator)
from stochgm.errors import DataError, NoSolution, UnstableDiscretization
from stochgm.gm_model import G_ACCEL, SimBatch


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
        with pytest.raises(NoSolution):
            solve_modulator(0.0, 50.0, 5.0, 40.0)

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
        t = batch.times
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
        assert ai.mean() == pytest.approx(base_params.ai, rel=0.05)

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

    def test_sigma_floor_hits(self, base_params, sim_dt):
        # the temporal engine's sigma is exactly 0 at t = 0 (no increment
        # has arrived yet); the spectral engine's is positive everywhere
        temporal = simulate_temporal(base_params, sim_dt, 2, seed=1)
        assert temporal.sigma_floor_hits == 1
        assert np.all(temporal.realizations[:, 0] == 0.0)
        assert simulate_spectral(base_params, sim_dt, 2, seed=1).sigma_floor_hits == 0
        assert apply_highpass(temporal, 0.5).sigma_floor_hits == 1

    def test_unstable_dt(self, base_params):
        with pytest.raises(UnstableDiscretization):
            simulate_temporal(base_params, 0.05, 2, seed=0)

    def test_npz_round_trip(self, base_params, sim_dt, tmp_path):
        batch = simulate_spectral(base_params, sim_dt, 3, seed=1)
        path = tmp_path / "b.npz"
        batch.save_npz(path)
        loaded = SimBatch.load_npz(path)
        np.testing.assert_array_equal(loaded.realizations, batch.realizations)
        assert loaded.params == batch.params
        assert loaded.domain_tag == "spectral"


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
    return h @ (z.T * math.sqrt(dt)), np.sqrt((h ** 2).sum(axis=1) * dt)


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
    return x1, np.sqrt((mag ** 2).sum(axis=1) * 2 * dw)


class TestBlockedEngines:
    # 7000 elements: 5 rows per temporal block and 11 per spectral block
    # at m = 1251, K = 625, both with a ragged last block
    BLOCK = 7000

    @pytest.mark.parametrize("engine,x1_fn,dense_fn,noise_shape", [
        (simulate_temporal, "_temporal_x1", dense_temporal_x1,
         lambda m, big_k: (m,)),
        (simulate_spectral, "_spectral_x1", dense_spectral_x1,
         lambda m, big_k: (2, big_k)),
    ], ids=["temporal", "spectral"])
    def test_blocked_matches_dense(self, monkeypatch, base_params, sim_dt,
                                   engine, x1_fn, dense_fn, noise_shape):
        monkeypatch.setattr(gm_model, "BLOCK_ELEMENTS", self.BLOCK)
        t = gm_model._time_grid(base_params, sim_dt)
        m = t.size
        big_k = math.ceil(base_params.t_total / (2 * sim_dt))
        z = gm_model._noise_matrix(7, 6, noise_shape(m, big_k))
        width = z.shape[-1]
        blocks = gm_model._row_blocks(m, width)
        assert len(blocks) > 2 and blocks[-1][1] - blocks[-1][0] < blocks[0][1]

        x1, sigma = getattr(gm_model, x1_fn)(base_params, t, sim_dt, z)
        x1_ref, sigma_ref = dense_fn(base_params, t, sim_dt, z)
        assert np.abs(x1 - x1_ref).max() <= 1e-12 * np.abs(x1_ref).max()
        assert np.abs(sigma - sigma_ref).max() <= 1e-12 * sigma_ref.max()

        batch = engine(base_params, sim_dt, 6, seed=7)
        q = solve_modulator(base_params.log_ai, base_params.d595,
                            base_params.t_mid, base_params.t_total)(t)
        ref = gm_model._normalize_and_modulate(x1_ref, sigma_ref, q).T
        assert np.abs(batch.realizations - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("engine", ["simulate_temporal", "simulate_spectral"])
    def test_memory_bound(self, engine):
        # m = 12001 (60 s at 0.005 s), n = 4. Built whole, the temporal
        # engine's lag and h are 2 x 12001^2 x 8 B = 2.3 GB and the spectral
        # engine's four 12001 x 6000 arrays are 2.3 GB; blocked, the peak
        # is the interpreter, numpy and a few 8 MiB blocks
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
            with pytest.raises(DataError, match="kernel"):
                highpass(np.ones(10), fc, 0.02)
