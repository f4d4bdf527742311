"""Property tests of the simulation model: the modulator fit reproduces its
energy targets, and the high-pass brings every motion to rest."""

import math

import numpy as np
import pytest

from stochgm import gm_model, highpass, solve_modulator
from test_gm_model import measure_q2_targets

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# the ranges of perfbench/inputs.draw_params: times scale with t_total/25
@settings(max_examples=40, deadline=None)
@given(t_total=st.floats(10.0, 60.0), ai=st.floats(0.3, 0.7),
       d595=st.floats(8.0, 12.0), t_mid=st.floats(4.0, 5.5))
def test_modulator_round_trip(t_total, ai, d595, t_mid):
    s = t_total / 25.0
    c = solve_modulator(math.log(ai), d595 * s, t_mid * s, t_total)
    ai_q, d595_q, t_mid_q = measure_q2_targets(c, t_total)
    assert ai_q == pytest.approx(ai, rel=0.01)
    assert d595_q == pytest.approx(d595 * s, rel=0.01)
    assert t_mid_q == pytest.approx(t_mid * s, rel=0.01)


@settings(max_examples=60, deadline=None)
@given(fc=st.floats(0.05, 2.0), dt=st.floats(0.005, 0.02),
       m=st.integers(50, 2000), n=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1))
def test_highpass_comes_to_rest(fc, dt, m, n, seed):
    x = np.random.default_rng(seed).standard_normal((n, m))
    out = highpass(x, fc, dt)
    pad = math.floor(gm_model.TAIL_U / (2 * math.pi * fc * dt)) + 2
    assert out.shape == (n, m + pad)
    assert np.all(np.isfinite(out))
    vel = np.cumsum(out, axis=1) * dt
    disp = np.cumsum(vel, axis=1) * dt
    assert np.all(np.abs(vel[:, -1]) <= 1e-3 * np.abs(vel).max(axis=1))
    assert np.all(np.abs(disp[:, -1]) <= 1e-3 * np.abs(disp).max(axis=1))
