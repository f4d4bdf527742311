import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter, sosfilt

from stochgm import (batch_log_sa, compute_sa, highpass, resp_spectrum,
                     simulate_spectral, simulate_temporal, standard_period_grid)
from stochgm.errors import DataError
from stochgm.gm_model import SimBatch
from stochgm.resp_spectrum import (PeriodUnderResolved, batch_sa_matrix, log_sa,
                                   peak_displacement, recurrence)


class TestRecurrence:
    """recurrence against scipy.signal: lfilter within RTOL of the
    reference's max |y| (they differ only in rounding order), and sosfilt on
    the section of b and a padded to three taps bit for bit (it runs the
    same loop)."""

    RTOL = 1e-13
    # SDOF-like two-pole (poles 0.97*exp(+-0.1i)) and the engine's one complex pole
    REAL = ([0.2, -0.3, 0.1], [1.0, -2 * 0.97 * math.cos(0.1), 0.97 ** 2])
    LAM = cmath.exp(complex(-0.3, 0.95) * 0.1)

    def check(self, got, ref):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= self.RTOL * np.abs(ref).max()

    @pytest.fixture(params=[(1, 1), (1, 2), (1, 4001), (3, 1), (3, 2), (3, 4001)],
                    ids=lambda s: f"n{s[0]}-m{s[1]}")
    def x(self, request):
        return np.random.default_rng(sum(request.param)).standard_normal(request.param)

    @pytest.mark.parametrize("with_zi", [False, True])
    def test_real_matches_lfilter(self, x, with_zi):
        b, a = self.REAL
        zi = np.random.default_rng(1).standard_normal((x.shape[0], 2)) if with_zi else None
        ref = lfilter(b, a, x, zi=zi)[0] if with_zi else lfilter(b, a, x)
        self.check(recurrence(b, a, x, zi=zi), ref)
        if x.shape[0] == 1:  # a 1-D series
            self.check(recurrence(b, a, x[0], zi=None if zi is None else zi[0]), ref[0])

    def test_complex_pole_matches_sosfilt(self, x):
        ref = sosfilt([[0.7, 0.0, 0.0, 1.0, -self.LAM, 0.0]], x)
        self.check(recurrence([0.7], [1.0, -self.LAM], x), ref)

    def test_complex_matches_lfilter_with_zi(self, x):
        b, a = [0.7, 0.1j], [1.0, -self.LAM, 0.2 * self.LAM ** 2]
        zi = np.random.default_rng(2).standard_normal((x.shape[0], 2)) * (1 - 1j)
        self.check(recurrence(b, a, x + 0.5j * x, zi=zi),
                   lfilter(b, a, x + 0.5j * x, zi=zi)[0])

    @pytest.mark.parametrize("extra", [1, 3, 50])
    def test_size_extends_with_zeros(self, x, extra):
        b, a = self.REAL
        padded = np.concatenate([x, np.zeros((x.shape[0], extra))], axis=-1)
        self.check(recurrence(b, a, x, size=x.shape[1] + extra), lfilter(b, a, padded))

    @pytest.mark.parametrize("b, a, imag, zi_width, extra", [
        (REAL[0], REAL[1], 0.0, 0, 0),
        (REAL[0], REAL[1], 0.0, 2, 0),
        (REAL[0], REAL[1], 0.0, 2, 7),
        ([0.7], [1.0, -LAM], 0.0, 0, 3),
        ([0.7], [1.0, -LAM], 0.0, 1, 0),
        ([0.7, 0.1j], [1.0, -LAM, 0.2 * LAM ** 2], 0.5, 2, 0),
    ], ids=["real", "real-zi", "real-zi-size", "pole-size", "pole-zi1", "complex-zi"])
    def test_bitwise_sosfilt(self, x, b, a, imag, zi_width, extra):
        # the section sosfilt runs on b and a padded to three taps each,
        # with x extended by zeros and zi by a zero state
        x = x + imag * 1j * x if imag else x
        sos = [list(b) + [0.0] * (3 - len(b)) + list(a) + [0.0] * (3 - len(a))]
        zi = np.random.default_rng(3).standard_normal((x.shape[0], zi_width)) * (1 - 1j)
        zi = zi if np.result_type(x, *b, *a).kind == "c" else zi.real
        state = np.pad(zi, ((0, 0), (0, 2 - zi_width)))
        padded = np.pad(x, ((0, 0), (0, extra)))
        size = x.shape[1] + extra
        ref = sosfilt(sos, padded, zi=state[None])[0]
        got = recurrence(b, a, x, zi=zi if zi_width else None, size=size)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        got = recurrence(b, a, x[0], zi=zi[0] if zi_width else None, size=size)
        assert np.array_equal(got, sosfilt(sos, padded[0], zi=state[:1])[0])

    def test_three_poles_raise_before_the_loop(self, monkeypatch):
        def loop(*args):
            raise AssertionError("the C loop ran")
        monkeypatch.setattr(resp_spectrum, "_sosfilt", loop)
        with pytest.raises(ValueError, match="3 poles"):
            recurrence([1.0], [1.0, 0.1, 0.1, 0.1], np.ones((2, 5)))
        with pytest.raises(ValueError, match="3 zeros"):
            recurrence([1.0, 0.1, 0.1, 0.1], [1.0], np.ones(5))


class TestRowSplit:
    """recurrence runs a batch of at least two row blocks in row shares, one
    per CPU (resp_spectrum._CPUS): the rows are independent, so the shares
    move no bit, take no more memory than one serial call, pass a worker's
    error to the caller, and survive a fork."""

    # 7 rows of 30,000: 3 shares (not dividing 7) at 3 CPUs
    SHAPE = (7, 30000)
    REAL = TestRecurrence.REAL
    LAM = TestRecurrence.LAM

    @pytest.fixture
    def shares(self, monkeypatch):
        """The calls that split, counted, under the CPU count set by the
        returned function."""
        calls = []
        workers = resp_spectrum._workers
        monkeypatch.setattr(resp_spectrum, "_workers",
                            lambda: calls.append(1) or workers())

        def cpus(count):
            monkeypatch.setattr(resp_spectrum, "_CPUS", count)
            calls.clear()
            return calls
        return cpus

    @pytest.mark.parametrize("b, a, imag, zi_width, extra", [
        (REAL[0], REAL[1], 0.0, 0, 0),
        (REAL[0], REAL[1], 0.0, 2, 500),
        ([0.7], [1.0, -LAM], 0.0, 1, 0),
        ([0.7, 0.1j], [1.0, -LAM, 0.2 * LAM ** 2], 0.5, 2, 500),
    ], ids=["real", "real-zi-size", "pole-zi1", "complex-zi-size"])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_bits_do_not_depend_on_cpus(self, shares, b, a, imag, zi_width, extra,
                                        ndim):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(self.SHAPE)
        x = x + imag * 1j * x if imag else x
        zi = rng.standard_normal((x.shape[0], zi_width)) if zi_width else None
        if ndim == 1:
            x, zi = x[0], None if zi is None else zi[0]
        size = x.shape[-1] + extra
        out = {}
        for cpus in (1, 3):
            calls = shares(cpus)
            out[cpus] = recurrence(b, a, x, zi=zi, size=size)
            assert len(calls) == (2 if cpus > 1 and ndim == 2 else 0)
        assert out[1].dtype == out[3].dtype and out[1].shape == out[3].shape
        assert out[1].tobytes() == out[3].tobytes()

    def test_worker_error_reaches_caller(self, shares, monkeypatch):
        import threading

        loop = resp_spectrum._sosfilt

        def fail_off_main(sos, y, state):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("in a worker")
            loop(sos, y, state)

        monkeypatch.setattr(resp_spectrum, "_sosfilt", fail_off_main)
        calls = shares(3)
        with pytest.raises(FloatingPointError, match="in a worker"):
            recurrence(*self.REAL, np.ones(self.SHAPE))
        assert calls

    def test_forked_child_splits(self, shares):
        # the child inherits the parent's pool object but none of its
        # threads; a call that used them would wait forever
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        x = np.random.default_rng(9).standard_normal(self.SHAPE)
        calls = shares(3)
        ref = recurrence(*self.REAL, x)
        assert calls

        def child():
            assert recurrence(*self.REAL, x).tobytes() == ref.tobytes()

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("the forked child's split call hung")
        assert proc.exitcode == 0

    def test_split_peak_memory(self, shares):
        """tracemalloc peak of a split call at fit-fc's batch shape: the
        serial call's plus the pool's bookkeeping, under one row of the
        output y, and the serial call's is y's. A share copies into its rows
        of the one output; a temporary of a share's rows holds a row."""
        x = np.random.default_rng(10).standard_normal((100, 1400))
        zi = np.ones((100, 1))
        peaks = {}
        for cpus in (1, 3):
            shares(cpus)
            recurrence(*self.REAL, x, zi=zi, size=2000)  # the pool, at 3 CPUs
            tracemalloc.start()
            try:
                y = recurrence(*self.REAL, x, zi=zi, size=2000)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        row = y.nbytes // y.shape[0]
        assert y.nbytes <= peaks[1] < y.nbytes + row
        assert peaks[3] < peaks[1] + row


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

    @pytest.mark.parametrize("periods", [[0.5, 2.0, 1.0], [1.0, 1.0], [3.0, 2.0]])
    def test_order_checked_before_any_work(self, monkeypatch, periods):
        # compute_sa refuses periods that are not strictly increasing before
        # it runs the kernel for any of them
        calls = []
        monkeypatch.setattr(resp_spectrum, "peak_displacement",
                            lambda *a, **k: calls.append(a) or np.zeros(1))
        with pytest.raises(ValueError, match="strictly increasing"):
            compute_sa(np.sin(np.linspace(0, 10, 200)), 0.01, periods)
        assert calls == []


class TestRowBlocks:
    """resp_spectrum.row_blocks is the one rule by which the engines, the
    high-pass and the spectra stream a batch: rows are independent, so the
    block size moves no bit, and a refined period holds only a block's
    temporaries."""

    @pytest.mark.parametrize("period,refine", [(0.05, 7), (0.2, 2)])
    def test_refined_peak_memory(self, period, refine):
        """tracemalloc peak of batch_sa_matrix at n = 200, m = 6,001, in
        (n, m) float64 arrays: u and v of the whole batch, stacked into
        (4, n, m - 1), would hold 6.1."""
        assert resp_spectrum.refine_factor(0.01, period) == refine
        x = np.random.default_rng(3).standard_normal((200, 6001))
        batch_sa_matrix(x[:2], 0.01, [period])  # first-call caches
        tracemalloc.start()
        try:
            batch_sa_matrix(x, 0.01, [period])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * x.nbytes

    def outputs(self, base_params):
        rng = np.random.default_rng(11)
        # refine 64 and 11 at dt = 0.01 s, then two plain periods
        periods = [0.005, 0.03, 0.5, 2.0]
        out = [batch_sa_matrix(rng.standard_normal((5, m)), 0.01, periods)
               for m in (1, 2, 300)]
        out.append(highpass(rng.standard_normal((5, 300)), 0.5, 0.01))
        out += [engine(base_params, 0.02, 60, seed=4).realizations
                for engine in (simulate_temporal, simulate_spectral)]
        return [a.tobytes() for a in out]

    @pytest.mark.parametrize("block", [1, 1 << 24])
    def test_outputs_do_not_depend_on_block(self, monkeypatch, base_params, block):
        default = self.outputs(base_params)
        monkeypatch.setattr(resp_spectrum, "_BLOCK", block)
        assert self.outputs(base_params) == default


class TestStepPlan:
    """peak_displacement's per-(dt, period, damping) set-up is computed once
    per process (resp_spectrum._plan); a cached plan gives the same bits as
    a fresh one, and no caller can change it."""

    def test_cold_cache_equals_warm(self):
        x = np.random.default_rng(5).standard_normal(1500)
        # refined (0.03 s, 0.1 s at dt = 0.01 s) and plain periods
        periods = [0.03, 0.1, 0.5, 2.0, 8.0]
        warm = compute_sa(x, 0.01, periods).sa
        assert resp_spectrum._plan.cache_info().currsize > 0
        resp_spectrum._plan.cache_clear()
        cold = compute_sa(x, 0.01, periods).sa
        assert cold.tobytes() == warm.tobytes()
        assert compute_sa(x, 0.01, periods).sa.tobytes() == warm.tobytes()

    def test_cached_arrays_are_read_only(self):
        plan = resp_spectrum._plan(0.01, 0.03, 0.05, resp_spectrum.refine_factor(0.01, 0.03))
        arrays = [v for v in plan if isinstance(v, np.ndarray)]
        assert len(arrays) == 3 and arrays[-1].shape == (10, 4)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
