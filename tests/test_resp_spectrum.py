import math

import numpy as np
import pytest
from scipy.signal import lfilter

from stochgm import (batch_log_sa, compute_sa, simulate_spectral,
                     standard_period_grid)
from stochgm.errors import DataError
from stochgm.gm_model import SimBatch
from stochgm.resp_spectrum import (PeriodUnderResolved, batch_sa_matrix, log_sa,
                                   peak_displacement)


class TestPeriodGrid:
    def test_endpoints(self):
        grid = standard_period_grid()
        assert grid.size == 100
        assert grid[0] == pytest.approx(0.05, rel=1e-12)
        assert grid[-1] == pytest.approx(10.0, rel=1e-12)

    def test_log_spacing(self):
        ratios = np.diff(np.log(standard_period_grid()))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


class TestComputeSa:
    def test_zero_input(self):
        spec = compute_sa(np.zeros(500), 0.01, standard_period_grid())
        assert np.all(spec.sa == 0)

    def test_stiff_limit_recovers_pga(self):
        dt = 0.005
        t = np.arange(0, 20, dt)
        accel = 0.3 * np.sin(2 * np.pi * 0.25 * t)  # slow, smooth input
        spec = compute_sa(accel, dt, np.array([2 * dt * 1.01, 1.0]))
        assert spec.sa[0] == pytest.approx(np.abs(accel).max(), rel=0.02)
        assert not spec.under_resolved.any()

    def test_under_resolved_flagged(self):
        dt = 0.01
        accel = np.sin(np.linspace(0, 30, 500))
        with pytest.warns(PeriodUnderResolved):
            spec = compute_sa(accel, dt, np.array([dt, 1.0]))
        assert spec.under_resolved[0] and not spec.under_resolved[1]
        assert np.isfinite(spec.sa).all()

    def test_resonant_amplification(self):
        period, zeta, dt = 1.0, 0.05, 0.005
        t = np.arange(0, 50 * period, dt)
        omega = 2 * np.pi / period
        spec = compute_sa(np.sin(omega * t), dt, np.array([period]), damping=zeta)
        assert spec.sa[0] == pytest.approx(1 / (2 * zeta), rel=0.05)

    def test_amplitude_homogeneity(self):
        rng = np.random.default_rng(3)
        accel = rng.standard_normal(800)
        periods = standard_period_grid(20, 0.1, 5.0)
        s1 = compute_sa(accel, 0.01, periods).sa
        s2 = compute_sa(3.7 * accel, 0.01, periods).sa
        np.testing.assert_allclose(s2, 3.7 * s1, rtol=1e-10)

    def test_refinement_stability(self):
        rng = np.random.default_rng(9)
        dt = 0.02
        accel = rng.standard_normal(600)
        t = np.arange(accel.size) * dt
        t_fine = np.arange(0, t[-1] + dt / 4, dt / 2)
        fine = np.interp(t_fine, t, accel)
        periods = standard_period_grid(20, 10 * dt, 5.0)
        coarse_sa = compute_sa(accel, dt, periods).sa
        fine_sa = compute_sa(fine, dt / 2, periods).sa
        np.testing.assert_allclose(fine_sa, coarse_sa, rtol=0.01)

    def test_sa_in_g(self):
        spec = compute_sa(np.sin(np.linspace(0, 30, 600)), 0.05,
                          np.array([1.0]))
        assert spec.sa_g[0] == pytest.approx(spec.sa[0] / 9.80665)


class TestBatchLogSa:
    def _batch(self, rows, dt=0.01):
        from stochgm.gm_model import GMParams
        params = GMParams(0.0, 2.0, 1.0, 15.0, 0.0, 0.3, 5.0)
        return SimBatch(realizations=np.asarray(rows, dtype=float), dt=dt,
                        seed=0, params=params, domain_tag="temporal")

    def test_identical_rows_zero_variance(self):
        row = np.sin(np.linspace(0, 20, 400))
        m = batch_log_sa(self._batch([row, row, row]),
                         standard_period_grid(10, 0.1, 2.0))
        np.testing.assert_allclose(m.var(axis=0), 0.0, atol=1e-28)

    def test_single_row_matches_compute_sa(self):
        rng = np.random.default_rng(1)
        row = rng.standard_normal(400)
        periods = standard_period_grid(10, 0.1, 2.0)
        m = batch_log_sa(self._batch([row]), periods)
        expected = np.log(compute_sa(row, 0.01, periods).sa)
        np.testing.assert_allclose(m[0], expected, rtol=1e-12)

    def test_degenerate_realization(self):
        with pytest.raises(DataError, match=r"zero Sa in realizations \[0\]"):
            batch_log_sa(self._batch([np.zeros(400)]),
                         standard_period_grid(5, 0.1, 1.0))

    def test_log_sa_of_one_spectrum(self):
        np.testing.assert_array_equal(log_sa([1.0, 2.0]), np.log([1.0, 2.0]))
        with pytest.raises(DataError, match="zero Sa at 1 of 3 periods"):
            log_sa([1.0, 0.0, 2.0])

    def test_column_means_converge(self, base_params, sim_dt):
        periods = standard_period_grid(12, 0.2, 5.0)
        small = simulate_spectral(base_params, sim_dt, 100, seed=21)
        large = simulate_spectral(base_params, sim_dt, 1000, seed=22)
        ls, ll = batch_log_sa(small, periods), batch_log_sa(large, periods)
        se = np.sqrt(ls.var(axis=0, ddof=1) / 100 + ll.var(axis=0, ddof=1) / 1000)
        assert np.all(np.abs(ls.mean(axis=0) - ll.mean(axis=0)) < 2.5 * se)

    def test_batch_matrix_matches_rowwise(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((4, 300))
        periods = standard_period_grid(8, 0.1, 2.0)
        m = batch_sa_matrix(rows, 0.01, periods)
        for i in range(4):
            np.testing.assert_allclose(
                m[i], compute_sa(rows[i], 0.01, periods).sa, rtol=1e-12)


def upsampled_peak(accel, dt, period, damping):
    """Reference peak by upsampling: for T < 32 dt the record is
    interpolated linearly onto ceil(32 dt/T) sub-steps per step and the
    upsampled copy is filtered with the exact recurrence at the sub-step,
    its A and B built as 2x2 arrays from the particular solution."""
    accel = np.atleast_2d(np.asarray(accel, dtype=float))
    refine = max(1, math.ceil(32 * dt / period))
    f = -accel
    if refine > 1:
        steps = np.arange(refine) / refine
        seg = f[..., :-1, None] + np.diff(f, axis=-1)[..., None] * steps
        out = seg.reshape(f.shape[:-1] + ((f.shape[-1] - 1) * refine,))
        f = np.concatenate([out, f[..., -1:]], axis=-1)
        dt = dt / refine
    omega = 2 * math.pi / period
    wd = omega * math.sqrt(1 - damping ** 2)
    e = math.exp(-damping * omega * dt)
    c, s = math.cos(wd * dt), math.sin(wd * dt)
    zs = damping / math.sqrt(1 - damping ** 2)
    A = np.array([[e * (c + zs * s), e * s / wd],
                  [-omega / math.sqrt(1 - damping ** 2) * e * s, e * (c - zs * s)]])
    w2, w3 = omega ** 2, omega ** 3
    B = np.empty((2, 2))
    for col, (f0, f1) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        slope = (f1 - f0) / dt
        up0 = np.array([f0 / w2 - 2 * damping * slope / w3, slope / w2])
        up1 = np.array([f1 / w2 - 2 * damping * slope / w3, slope / w2])
        B[:, col] = up1 - A @ up0
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B
    b = np.array([b12, b11 + a12 * b22 - a22 * b12, a12 * b21 - a22 * b11])
    a = np.array([1.0, -(a11 + a22), a11 * a22 - a12 * a21])
    zi = np.stack([-b[0] * f[:, 0], (b11 - b[1]) * f[:, 0]], axis=-1)
    u, _ = lfilter(b, a, f, axis=-1, zi=zi)
    return np.max(np.abs(u), axis=-1)


class TestExactKernel:
    """The peak read at exact fractional steps equals the peak of the
    upsampled recurrence: both visit the same points."""

    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02])
    @pytest.mark.parametrize("zeta", [0.02, 0.05, 0.2])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_matches_upsampled_recurrence(self, base_params, dt, zeta, rows):
        accel = simulate_spectral(base_params, dt, rows, seed=17).realizations[:, :1500]
        if rows == 1:
            accel = accel[0]
        # 0.5 dt to 10 s, plus T = 2 dt sqrt(1 - zeta^2), where the one-step
        # displacement-from-velocity gain a12 = e sin(wd dt)/wd vanishes
        periods = np.append(np.logspace(math.log10(0.5 * dt), 1, 40),
                            2 * dt * math.sqrt(1 - zeta ** 2))
        assert np.any(periods < 2 * dt)
        for period in periods:
            ref = upsampled_peak(accel, dt, period, zeta)
            np.testing.assert_allclose(peak_displacement(accel, dt, period, zeta),
                                       ref, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("call", [
        lambda a, dt, p, z: compute_sa(a, dt, p, z),
        lambda a, dt, p, z: batch_sa_matrix(a[None, :], dt, p, z)],
        ids=["compute_sa", "batch_sa_matrix"])
    @pytest.mark.parametrize("arg,kwargs", [
        ("dt", {"dt": -0.01}), ("dt", {"dt": 0.0}), ("dt", {"dt": math.inf}),
        ("dt", {"dt": math.nan}),
        ("damping", {"z": 1.0}), ("damping", {"z": 0.0}), ("damping", {"z": math.nan}),
        ("periods", {"p": [-1.0]}), ("periods", {"p": [0.0, 1.0]}),
        ("periods", {"p": [1.0, math.inf]}), ("periods", {"p": [math.nan]})])
    def test_bad_argument_names_it(self, call, arg, kwargs):
        args = {"dt": 0.01, "p": [0.5, 1.0], "z": 0.05} | kwargs
        with pytest.raises(ValueError, match=arg):
            call(np.sin(np.linspace(0, 10, 200)), args["dt"], args["p"], args["z"])
