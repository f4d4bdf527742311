import math
from unittest import mock

import numpy as np
import pytest

from stochgm import FcSearchConfig, epsilon, fc_opt, optimize_fc, simulate_spectral
from stochgm.catalog_io import AccelerogramRecord
from stochgm.errors import NumericalError
from stochgm.gm_model import apply_highpass

FAST = FcSearchConfig(grid_lo=0.2, grid_hi=0.8, step=0.05, n_mc=30, seed=3)


def synthetic_record(params, dt, fc, seed=777):
    batch = apply_highpass(simulate_spectral(params, dt, 1, seed), fc)
    return AccelerogramRecord(id=f"synth_fc{fc}", dt=dt,
                              accel=batch.realizations[0], unit="m/s2")


class TestEpsilon:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.sim = rng.standard_normal((100, 30)) + 2.0

    def test_zero_at_matching_mean(self):
        real = self.sim.mean(axis=0)
        assert epsilon(real, self.sim) == pytest.approx(0.0, abs=1e-10)

    def test_signed_biases_cancel(self):
        mean = self.sim.mean(axis=0)
        std = self.sim.std(axis=0, ddof=1)
        real = mean + std * np.repeat([1.0, -1.0], 15)
        assert epsilon(real, self.sim) == pytest.approx(0.0, abs=1e-10)

    def test_one_sigma_everywhere(self):
        mean = self.sim.mean(axis=0)
        std = self.sim.std(axis=0, ddof=1)
        assert epsilon(mean + std, self.sim) == pytest.approx(30.0, rel=1e-10)

    def test_signed(self):
        mean = self.sim.mean(axis=0)
        std = self.sim.std(axis=0, ddof=1)
        assert epsilon(mean - std, self.sim, signed=True) == \
            pytest.approx(-30.0, rel=1e-10)
        assert epsilon(mean - std, self.sim) == pytest.approx(30.0, rel=1e-10)

    def test_zero_spread(self):
        sim = np.ones((50, 30))
        with pytest.raises(NumericalError, match="zero spread at match points"):
            epsilon(np.ones(30), sim)


class TestOptimize:
    def test_self_recovery_fast(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        res = optimize_fc(rec, base_params.with_fc(None), FAST, "spectral")
        assert res.fc_star == pytest.approx(0.5, abs=0.1 + 1e-9)

    def test_argmin_is_local_min(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        res = optimize_fc(rec, base_params.with_fc(None), FAST, "spectral")
        i = int(np.argmin(res.epsilon_curve))
        if i > 0:
            assert res.epsilon_curve[i] <= res.epsilon_curve[i - 1]
        if i < res.epsilon_curve.size - 1:
            assert res.epsilon_curve[i] <= res.epsilon_curve[i + 1]

    def test_deterministic(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        r1 = optimize_fc(rec, base_params.with_fc(None), FAST, "spectral")
        r2 = optimize_fc(rec, base_params.with_fc(None), FAST, "spectral")
        assert r1.fc_star == r2.fc_star
        np.testing.assert_array_equal(r1.epsilon_curve, r2.epsilon_curve)

    def test_independent_seed_agrees(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        other = FcSearchConfig(grid_lo=0.2, grid_hi=0.8, step=0.05, n_mc=30,
                               seed=91)
        r1 = optimize_fc(rec, base_params.with_fc(None), FAST, "spectral")
        r2 = optimize_fc(rec, base_params.with_fc(None), other, "spectral")
        assert abs(r1.fc_star - r2.fc_star) <= 0.1 + 1e-12

    def test_fc_zero_is_legal_grid_point(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.0)
        cfg = FcSearchConfig(grid_lo=0.0, grid_hi=0.2, step=0.1, n_mc=20, seed=3)
        res = optimize_fc(rec, base_params.with_fc(None), cfg, "spectral")
        assert res.fc_grid[0] == 0.0
        assert np.all(np.isfinite(res.epsilon_curve))


class TestConfig:
    def test_grid(self):
        cfg = FcSearchConfig()
        grid = cfg.grid
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(2.0)
        assert grid.size == 201

    @pytest.mark.parametrize("triplet, size, last", [
        ((0.0, 1.0, 0.35), 3, 0.7),  # rounding the count up added 1.05 Hz
        ((0.0, 2.0, 0.01), 201, 2.0),
        ((0.05, 0.95, 0.1), 10, 0.95),
        ((0.1, 0.3, 0.1), 3, 0.3),  # perfbench's fit-fc grid
    ])
    def test_grid_ends_at_or_below_hi(self, triplet, size, last):
        grid = FcSearchConfig(*triplet).grid
        assert grid.size == size and grid[-1] == pytest.approx(last)

    def test_match_points(self):
        pts = fc_opt.MATCH_PERIODS
        assert pts.size == 30
        assert pts[0] == pytest.approx(1.0) and pts[-1] == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FcSearchConfig(step=-0.1)
        with pytest.raises(ValueError):
            FcSearchConfig(n_mc=1)
        with pytest.raises(ValueError):
            FcSearchConfig(grid_lo=-0.1)
        with pytest.raises(ValueError):
            FcSearchConfig(grid_lo=0.5, grid_hi=0.0)
        with pytest.raises(ValueError):
            FcSearchConfig(step=1e-12)  # 2e12 points, refused before allocation


def both_searches(rec, params, **grid):
    """Exhaustive and bracketed results on the same grid and MC draws; the
    exhaustive one is the fallback scan, forced by a search that finds no
    bracket."""
    config = FcSearchConfig(**grid)
    with mock.patch.object(fc_opt, "_illinois", return_value=None):
        ex = optimize_fc(rec, params, config, "spectral")
    return ex, optimize_fc(rec, params, config, "spectral")


def assert_subset_of(bracketed, exhaustive):
    """Every evaluated candidate is a grid point with the exhaustive value."""
    pos = np.searchsorted(exhaustive.fc_grid, bracketed.fc_grid)
    np.testing.assert_array_equal(exhaustive.fc_grid[pos], bracketed.fc_grid)
    np.testing.assert_array_equal(exhaustive.epsilon_curve[pos],
                                  bracketed.epsilon_curve)


class TestBracketed:
    def test_grid_below_sign_change_falls_back(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        ex, br = both_searches(rec, base_params.with_fc(None), grid_lo=0.0,
                               grid_hi=0.2, step=0.05, n_mc=30, seed=3)
        assert br.fallback and br.evals == 5
        np.testing.assert_array_equal(br.fc_grid, ex.fc_grid)
        np.testing.assert_array_equal(br.epsilon_curve, ex.epsilon_curve)
        assert br.fc_star == ex.fc_star == 0.2 and br.fc_on_edge

    def test_one_point_grid(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        ex, br = both_searches(rec, base_params.with_fc(None), grid_lo=0.3,
                               grid_hi=0.3, step=0.1, n_mc=20, seed=3)
        assert br.evals == 1 and br.fc_star == ex.fc_star == 0.3
        assert br.fc_on_edge
        assert_subset_of(br, ex)

    def test_two_point_grid(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        ex, br = both_searches(rec, base_params.with_fc(None), grid_lo=0.3,
                               grid_hi=0.7, step=0.4, n_mc=20, seed=3)
        assert not br.fallback and br.evals == 2
        assert br.fc_star == ex.fc_star
        assert_subset_of(br, ex)

    def test_bisects_default_grid(self, base_params, sim_dt):
        rec = synthetic_record(base_params, sim_dt, 0.5)
        res = optimize_fc(rec, base_params.with_fc(None),
                          FcSearchConfig(n_mc=20, seed=3))
        assert not res.fallback and res.evals <= 10
        assert np.all(np.diff(res.fc_grid) > 0)
        assert res.fc_star == pytest.approx(0.5, abs=0.1 + 1e-9)

    @pytest.mark.parametrize("fc_true, rec_seed", [(0.5, 777), (0.2, 909),
                                                   (0.5, 909), (1.0, 909)])
    def test_few_evals_default_grid(self, base_params, sim_dt, fc_true,
                                    rec_seed):
        # test_bisects_default_grid's record and the acceptance suite's
        # self-recovery records; with these 20 draws they take 5, 4, 5 and 7
        # evaluations
        rec = synthetic_record(base_params, sim_dt, fc_true, seed=rec_seed)
        ex, br = both_searches(rec, base_params.with_fc(None), n_mc=20, seed=3)
        assert ex.fallback and ex.evals == 201
        assert not br.fallback and br.evals <= (7 if fc_true == 1.0 else 6)
        assert np.all(np.diff(br.fc_grid) > 0)
        assert br.fc_star == ex.fc_star
        assert_subset_of(br, ex)


def search_array(s):
    """Run the bracketed search on precomputed S values; returns the final
    pair (None on fallback) and the number of values read."""
    read = {}

    def bias(i):
        if i not in read:
            read[i] = float(s[i])
        return read[i]

    return fc_opt._illinois(bias, s.size), len(read)


CUMSUM_STEPS = np.random.default_rng(0).lognormal(0.0, 2.0, 300)


def random_cumsum(u):
    c = np.cumsum(CUMSUM_STEPS[:u.size])
    r = int(np.searchsorted(u, 0.0))
    return c - (c[r - 1] + c[r]) / 2


# monotone S(u) with its sign change between u = -0.5 and u = 0.5
SHAPES = {
    "step": lambda u: np.where(u > 0, 1.0, -1.0),
    "sinh": lambda u: np.sinh(u / 4.0),
    "exponential": lambda u: np.expm1(u / 4.0),
    "cubic": lambda u: u ** 3,
    "random_cumsum": random_cumsum,
}
SIZES = [*range(2, 41), 63, 64, 65, 127, 128, 129, 200, 201, 255, 256, 257,
         300]


class TestIllinois:
    """The search alone, on synthetic monotone curves with the root at
    every index."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_worst_case(self, shape):
        for n in SIZES:
            bound = 2 + 2 * math.ceil(math.log2(n - 1))
            for r in range(1, n):
                pair, evals = search_array(SHAPES[shape](np.arange(n) - r + 0.5))
                # r is the first index where S >= 0
                assert pair == (r - 1, r) and evals <= bound, (n, r, pair, evals)

    def test_linear(self):
        for n in SIZES:
            for r in range(1, n):
                for offset in (0.1, 0.5, 0.9):
                    pair, evals = search_array(np.arange(n) - r + offset)
                    assert pair == (r - 1, r) and evals <= 4, (n, r, offset)

    def test_non_monotone_falls_back(self):
        assert search_array(np.array([-1.0, -2.0, 0.5, 1.0, 3.0]))[0] is None
