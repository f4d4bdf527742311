import numpy as np
import pytest

from stochgm import (GMParams, apply_highpass, highpass, simulate_spectral,
                     simulate_temporal, solve_modulator)
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
        b1 = simulate_temporal(base_params, sim_dt, 4, seed=3)
        b2 = simulate_temporal(base_params, sim_dt, 8, seed=3)
        np.testing.assert_array_equal(b1.realizations, b2.realizations[:4])

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


class TestHighpass:
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
        # ~1.8e11 samples: refused before anything is allocated
        with pytest.raises(DataError, match="kernel"):
            highpass(np.ones(10), 1e-9, 0.02)
