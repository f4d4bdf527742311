import numpy as np
import pytest

from stochgm import (batch_log_sa, compute_sa, simulate_spectral,
                     standard_period_grid)
from stochgm.errors import DataError
from stochgm.gm_model import SimBatch
from stochgm.resp_spectrum import PeriodUnderResolved, batch_sa_matrix, log_sa


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
