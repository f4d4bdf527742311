"""Property tests of the simulation model: the modulator fit reproduces its
energy targets, both engines match their dense references, and the
high-pass brings every motion to rest."""

import math

import numpy as np
import pytest

from stochgm import (GMParams, gm_model, highpass, simulate_spectral,
                     simulate_temporal, solve_modulator)
from test_gm_model import (dense_spectral_x1, dense_temporal_x1, measure_q2_targets,
                           spectral_x1)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# the ranges of perfbench/inputs.draw_params: times scale with t_total/25
@settings(max_examples=40)
@given(t_total=st.floats(10.0, 60.0), ai=st.floats(0.3, 0.7),
       d595=st.floats(8.0, 12.0), t_mid=st.floats(4.0, 5.5))
def test_modulator_round_trip(t_total, ai, d595, t_mid):
    s = t_total / 25.0
    c = solve_modulator(math.log(ai), d595 * s, t_mid * s, t_total)
    ai_q, d595_q, t_mid_q = measure_q2_targets(c, t_total)
    assert ai_q == pytest.approx(ai, rel=0.01)
    assert d595_q == pytest.approx(d595 * s, rel=0.01)
    assert t_mid_q == pytest.approx(t_mid * s, rel=0.01)


@st.composite
def gamma_targets(draw):
    """(d595, t_mid, t_total) of a truncated gamma kernel whose peak lies
    anywhere in [0.1, 0.8] of the record."""
    t_total = draw(st.floats(10.0, 80.0))
    k = math.exp(draw(st.floats(math.log(1.2), math.log(60.0))))
    r = (k - 1) / (draw(st.floats(0.1, 0.8)) * t_total)
    t5, t45, t95 = gm_model._ai_quantile_times(k, r, t_total)
    return t95 - t5, t45, t_total


@settings(max_examples=200)
@given(targets=gamma_targets())
@example(targets=(20.0, 15.0, 60.0))
def test_modulator_reaches_late_peaks(targets):
    d595, t_mid, t_total = targets
    c = solve_modulator(0.0, d595, t_mid, t_total)
    ai_q, d595_q, t_mid_q = measure_q2_targets(c, t_total)
    assert ai_q == pytest.approx(1.0, rel=0.01)
    assert d595_q == pytest.approx(d595, rel=0.01)
    assert t_mid_q == pytest.approx(t_mid, rel=0.01)


@settings(max_examples=60)
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


@st.composite
def filter_params(draw):
    """A parameter set of at most 501 samples whose filter frequency is
    constant, spans a wide range, or comes close to its floor 0 at one end
    of the record; dt keeps omega_max*dt < 0.5."""
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    t_total = (draw(st.integers(10, 500))) * dt
    s = t_total / 25.0
    w_hi = draw(st.floats(2.0, min(30.0, 0.45 / dt)))
    w_lo = draw(st.one_of(st.just(w_hi), st.floats(0.1, 1.0),
                          st.floats(1.0, w_hi)))
    w_start, w_end = (w_lo, w_hi) if draw(st.booleans()) else (w_hi, w_lo)
    t_mid = draw(st.floats(4.0, 5.5)) * s
    rate = (w_end - w_start) / t_total
    return GMParams(log_ai=math.log(0.5), d595=draw(st.floats(8.0, 12.0)) * s,
                    t_mid=t_mid, omega_mid=w_start + rate * t_mid, omega_rate=rate,
                    zeta_f=draw(st.floats(0.05, 0.9)), t_total=t_total), dt


@settings(max_examples=40)
@given(case=filter_params(), n=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
# three cases that broke the realizations' former bound of 1e-12 of max on
# the temporal engine: the first two as they were recorded, rounded, which
# read 0.95 and 0.14 of that bound; the third exact, which reads 1.5 of it:
# sigma at sample 2 is 4.6e-6 of its max with a 3.7e-11 relative error
@example(case=(GMParams(log_ai=math.log(0.5), d595=0.5216, t_mid=0.2608,
                        omega_mid=2.011875, omega_rate=7.29486, zeta_f=0.75,
                        t_total=1.63), 0.005), n=1, seed=1)
@example(case=(GMParams(log_ai=math.log(0.5), d595=0.4816, t_mid=0.2408,
                        omega_mid=2.77, omega_rate=10.4651, zeta_f=0.75,
                        t_total=1.505), 0.005), n=1, seed=16)
@example(case=(GMParams(log_ai=math.log(0.5), d595=0.6992, t_mid=0.3496,
                        omega_mid=3.7849999999999997, omega_rate=10.469107551487413,
                        zeta_f=0.5, t_total=2.185), 0.005), n=1, seed=1)
def test_engines_match_dense(case, n, seed):
    """Both engines within 1e-12 of max of the dense references on X1 and
    sigma_X1; the realizations too, plus the error X1 / sigma_X1 carries
    from sigma_X1's relative error at each sample. A constant omega takes
    one node."""
    params, dt = case
    t = gm_model._time_grid(params, dt)
    big_k = math.ceil(params.t_total / (2 * dt))
    q = solve_modulator(params.log_ai, params.d595, params.t_mid, params.t_total)(t)
    for engine, x1_fn, dense_fn, shape in (
            (simulate_temporal, gm_model._temporal_x1, dense_temporal_x1, (t.size,)),
            (simulate_spectral, spectral_x1, dense_spectral_x1, (2, big_k))):
        z = gm_model._noise_matrix(seed, n, shape)
        x1, sigma, p = x1_fn(params, t, dt, z)
        x1_ref, sigma_ref = dense_fn(params, t, dt, z)
        assert np.abs(x1 - x1_ref).max() <= 1e-12 * np.abs(x1_ref).max()
        assert np.abs(sigma - sigma_ref).max() <= 1e-12 * sigma_ref.max()

        batch = engine(params, dt, n, seed)
        ref, _ = gm_model._normalize_and_modulate(x1_ref, sigma_ref, q)
        # near t = 0 sigma is a small fraction of its max, so its error
        # relative to itself can exceed 1e-12, and X2 carries that in full
        with np.errstate(divide="ignore", invalid="ignore"):
            carried = np.abs(ref) * np.nan_to_num(np.abs(sigma - sigma_ref) / sigma)
        assert np.all(np.abs(batch.realizations - ref)
                      <= 1e-12 * np.abs(ref).max() + carried)
        assert batch.omega_nodes == p
        assert p == 1 or params.omega_rate != 0


@st.composite
def omega_laws(draw):
    """A parameter set whose filter frequency is linear or constant over 2
    to 1001 samples, between 0.1 rad/s and omega_max*dt = 0.45."""
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    t_total = draw(st.integers(1, 1000)) * dt
    w_start = draw(st.floats(0.1, 0.45 / dt))
    w_end = w_start if draw(st.integers(0, 3)) == 3 else draw(st.floats(0.1, 0.45 / dt))
    rate = (w_end - w_start) / t_total
    return GMParams(log_ai=math.log(0.5), d595=0.4 * t_total, t_mid=0.2 * t_total,
                    omega_mid=w_start + rate * 0.2 * t_total, omega_rate=rate,
                    zeta_f=draw(st.floats(0.05, 0.9)), t_total=t_total), dt


@settings(max_examples=60)
@given(case=omega_laws())
def test_node_bases(case):
    """The Lagrange bases _node_bases yields sum to 1 and reproduce omega
    itself (a line, which wrong weights would bend) within 1e-12 at every
    sample; where omega equals a node, its basis is exactly 1 and every
    other exactly 0; a constant omega takes one node with l = 1; and both
    engines report as many nodes as it yields."""
    params, dt = case
    t = gm_model._time_grid(params, dt)
    omega = params.omega_at(t)
    nodes, bases = zip(*gm_model._node_bases(omega, params.zeta_f))
    nodes, ell = np.array(nodes), np.array(bases)
    assert np.abs(ell.sum(axis=0) - 1).max() <= 1e-12
    assert np.abs(nodes @ ell - omega).max() <= 1e-12 * omega.max()
    for x in nodes:
        at = omega == x
        assert np.all(ell[:, at] == (nodes == x)[:, None])
    if params.omega_rate == 0:
        assert nodes.size == 1 and np.all(ell == 1)
    for engine in (simulate_temporal, simulate_spectral):
        assert engine(params, dt, 1, 0).omega_nodes == nodes.size
