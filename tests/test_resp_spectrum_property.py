"""Property tests of the response-spectrum kernel: Sa is even in the
record, blind to leading rest, and the same row by row as in a batch."""

import numpy as np
import pytest

from stochgm import compute_sa
from stochgm.resp_spectrum import batch_sa_matrix

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

pytestmark = pytest.mark.filterwarnings(
    "ignore::stochgm.resp_spectrum.PeriodUnderResolved")

# periods from below dt/2 (refine up to 128) to long ones (no refinement)
DTS = st.sampled_from([0.005, 0.01, 0.02])
PERIODS = st.lists(st.floats(0.005, 10.0), min_size=1, max_size=6, unique=True)
DAMPING = st.floats(0.01, 0.5)


def record(seed, m):
    return np.random.default_rng(seed).standard_normal(m)


@settings(max_examples=40, deadline=None)
@given(dt=DTS, periods=PERIODS, damping=DAMPING, m=st.integers(1, 800),
       seed=st.integers(0, 2**31 - 1))
def test_sign_symmetric(dt, periods, damping, m, seed):
    a, periods = record(seed, m), np.sort(periods)
    np.testing.assert_array_equal(compute_sa(-a, dt, periods, damping).sa,
                                  compute_sa(a, dt, periods, damping).sa)


@settings(max_examples=40, deadline=None)
@given(dt=DTS, periods=PERIODS, damping=DAMPING, m=st.integers(1, 800),
       zeros=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
def test_leading_rest_changes_nothing(dt, periods, damping, m, zeros, seed):
    a, periods = record(seed, m), np.sort(periods)
    a[0] = 0.0
    padded = np.concatenate([np.zeros(zeros), a])
    np.testing.assert_allclose(compute_sa(padded, dt, periods, damping).sa,
                               compute_sa(a, dt, periods, damping).sa,
                               rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(dt=DTS, periods=PERIODS, damping=DAMPING, n=st.integers(1, 5),
       m=st.integers(1, 800), seed=st.integers(0, 2**31 - 1))
def test_batch_rows_match_single_series(dt, periods, damping, n, m, seed):
    rows = np.random.default_rng(seed).standard_normal((n, m))
    periods = np.sort(periods)
    batch = batch_sa_matrix(rows, dt, periods, damping)
    for i in range(n):
        np.testing.assert_allclose(batch[i], compute_sa(rows[i], dt, periods,
                                                        damping).sa,
                                   rtol=1e-12, atol=0)
