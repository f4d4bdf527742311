"""Property test: the bracketed fc search agrees with the exhaustive scan."""

import math

import numpy as np
import pytest

from stochgm import GMParams
from test_fc_opt import assert_subset_of, both_searches, synthetic_record

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# Nonzero grid starts stay at or above 0.01 Hz, the default grid's first
# nonzero point: the high-pass pad grows as 1/fc (about 18k samples at
# 0.01 Hz and dt = 0.02 s), so a start near zero would need gigabytes.
@settings(max_examples=25, deadline=None)
@given(log_ai=st.floats(np.log(0.3), np.log(0.7)),
       d595=st.floats(8.0, 12.0), t_mid=st.floats(4.0, 5.5),
       omega_mid=st.floats(12.0, 18.0), omega_rate=st.floats(-0.2, 0.1),
       zeta_f=st.floats(0.2, 0.5), fc=st.floats(0.1, 0.7),
       rec_seed=st.integers(0, 2**31 - 1), mc_seed=st.integers(0, 2**31 - 1),
       n_mc=st.integers(10, 20),
       grid_lo=st.just(0.0) | st.floats(0.01, 0.3),
       span=st.floats(0.5, 1.5), step=st.floats(0.05, 0.2))
def test_bracketed_matches_exhaustive(log_ai, d595, t_mid, omega_mid,
                                      omega_rate, zeta_f, fc, rec_seed,
                                      mc_seed, n_mc, grid_lo, span, step):
    params = GMParams(log_ai=log_ai, d595=d595, t_mid=t_mid,
                      omega_mid=omega_mid, omega_rate=omega_rate,
                      zeta_f=zeta_f, t_total=25.0)
    rec = synthetic_record(params, 0.02, fc, seed=rec_seed)
    ex, br = both_searches(rec, params, grid_lo=grid_lo,
                           grid_hi=grid_lo + span, step=step, n_mc=n_mc,
                           seed=mc_seed)
    assert br.fc_star == ex.fc_star
    assert_subset_of(br, ex)
    if br.fallback:
        assert br.evals == ex.evals
    else:
        assert br.evals <= 2 + math.ceil(math.log2(ex.evals))
