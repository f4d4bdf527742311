import numpy as np
import pytest

from stochgm import (extract_simple_params, spectral_correlation,
                     spectral_quantiles, spectral_std)
from stochgm.catalog_io import AccelerogramRecord
from stochgm.errors import DataError


def make_sm(rows):
    """log Sa as the statistics take it: (n_records, n_periods) floats."""
    return np.asarray(rows, dtype=float)


class TestQuantiles:
    def test_identical_rows(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        sm = make_sm([row, row, row])
        for q in (0.05, 0.5, 0.95):
            np.testing.assert_allclose(spectral_quantiles(sm, q), row)

    def test_two_record_median_is_midpoint(self):
        sm = make_sm([[0.0, 2.0, 4.0, 6.0], [2.0, 4.0, 8.0, 10.0]])
        np.testing.assert_allclose(spectral_quantiles(sm, 0.5),
                                   [1.0, 3.0, 6.0, 8.0])

    def test_normal_quantile(self):
        rng = np.random.default_rng(4)
        sm = rng.standard_normal((1000, 2))
        q95 = spectral_quantiles(sm, 0.95)
        np.testing.assert_allclose(q95, 1.645, atol=0.1)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(8)
        sm = make_sm(rng.standard_normal((40, 4)))
        prev = spectral_quantiles(sm, 0.05)
        for q in (0.25, 0.5, 0.75, 0.95):
            cur = spectral_quantiles(sm, q)
            assert np.all(cur >= prev)
            prev = cur

    def test_too_few(self):
        with pytest.raises(DataError, match="need at least 2 records"):
            spectral_quantiles(make_sm([[1.0, 2.0, 3.0, 4.0]]), 0.5)


class TestCorrelation:
    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(2)
        rho = spectral_correlation(make_sm(rng.standard_normal((30, 4))))
        np.testing.assert_array_equal(np.diag(rho), 1.0)
        np.testing.assert_array_equal(rho, rho.T)
        assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_duplicated_column(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        rho = spectral_correlation(make_sm(np.column_stack([a, a, b, b])))
        assert rho[0, 1] == pytest.approx(1.0)

    def test_antilinear_columns(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(20)
        rho = spectral_correlation(
            make_sm(np.column_stack([a, -2.0 * a + 1.0])[:, :2]))
        assert rho[0, 1] == pytest.approx(-1.0)

    def test_zero_variance_column(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((10, 4))
        rows[:, 2] = 3.0
        with pytest.raises(DataError, match=r"zero variance at period columns \[2\]"):
            spectral_correlation(make_sm(rows))

    def test_constant_column_whose_mean_rounds(self):
        # mean([0.1] * 3) != 0.1, so the column's var() is ~2e-34, not 0
        rows = np.full((3, 2), 0.1)
        rows[:, 1] = [1.0, 2.0, 3.0]
        with pytest.raises(DataError, match=r"zero variance at period columns \[0\]"):
            spectral_correlation(rows)

    def test_row_shuffle_invariance(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((25, 4))
        sm = make_sm(rows)
        shuffled = make_sm(rows[rng.permutation(25)])
        np.testing.assert_allclose(spectral_correlation(sm),
                                   spectral_correlation(shuffled), atol=1e-12)
        np.testing.assert_allclose(spectral_std(sm), spectral_std(shuffled),
                                   atol=1e-12)


    def test_stacked_rows(self):
        # the call the data-gated reference criterion makes: one log Sa row
        # per record, stacked with np.vstack
        rng = np.random.default_rng(5)
        rows = [rng.standard_normal(4) for _ in range(6)]
        rho = spectral_correlation(np.vstack(rows))
        np.testing.assert_array_equal(rho, rho.T)
        np.testing.assert_array_equal(np.diag(rho), 1.0)


def spectral_median(log_sa):
    return spectral_quantiles(log_sa, 0.5)


class TestShapeChecks:
    @pytest.mark.parametrize("stat", [spectral_median, spectral_std,
                                      spectral_correlation])
    def test_one_dimensional(self, stat):
        with pytest.raises(ValueError, match=r"must be \(n_records, n_periods\)"):
            stat(np.arange(5.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stat", [spectral_median, spectral_std,
                                      spectral_correlation])
    def test_non_finite(self, stat, bad):
        rows = np.random.default_rng(9).standard_normal((10, 4))
        rows[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            stat(rows)


class TestExtractSimpleParams:
    def test_boxcar(self):
        dt = 0.001
        accel = np.ones(int(10 / dt) + 1)
        rec = AccelerogramRecord(id="box", dt=dt, accel=accel, unit="m/s2")
        p = extract_simple_params(rec)
        assert p["d595"] == pytest.approx(9.0, abs=0.01)
        assert p["t_mid"] == pytest.approx(4.5, abs=0.01)

    def test_scaling(self):
        rng = np.random.default_rng(3)
        accel = rng.standard_normal(2000)
        r1 = AccelerogramRecord(id="a", dt=0.01, accel=accel, unit="m/s2")
        r2 = AccelerogramRecord(id="b", dt=0.01, accel=3.0 * accel, unit="m/s2")
        p1, p2 = extract_simple_params(r1), extract_simple_params(r2)
        assert p2["log_ai"] - p1["log_ai"] == pytest.approx(2 * np.log(3.0))
        assert p2["d595"] == pytest.approx(p1["d595"])
        assert p2["t_mid"] == pytest.approx(p1["t_mid"])

    def test_zero_record(self):
        rec = AccelerogramRecord(id="z", dt=0.01, accel=np.zeros(100),
                                 unit="m/s2")
        with pytest.raises(DataError, match="record z has zero Arias intensity"):
            extract_simple_params(rec)
