"""Search for the high-pass corner frequency.

The objective is the absolute value of the summed standardized bias between
the recorded log spectrum and the Monte Carlo mean of the simulated log
spectrum, accumulated over 30 log-spaced periods in [1, 10] s. The absolute
value sits OUTSIDE the sum, exactly as the matching criterion is defined, so
opposite-signed period biases cancel.

Common random numbers: the n_mc pre-filter realizations are simulated once
and only the (cheap) high-pass stage and the 30 spectral ordinates are
recomputed per candidate fc, making the objective curve smooth and
run-to-run deterministic.

Under common random numbers the signed bias S(fc) rises with fc (a higher
corner removes more long-period energy), so argmin |S| sits at S's sign
change. The search evaluates the two grid ends and, when S(lo) < 0 <= S(hi),
narrows the bracket on grid indices down to an adjacent pair by false
position with the Illinois modification (Dowell & Jarratt 1971, BIT 11):
each step evaluates the grid index nearest the secant's root, and when the
same end moves twice in a row the other end's S is halved in the
interpolation. Each step is projected into the indices from which bisection
still closes the bracket within a budget of 2 * ceil(log2(n - 1)) interior
evaluations, so a grid of n points costs at most 2 + 2 * ceil(log2(n - 1))
evaluations (18 on the default 201-point grid) against n for the full scan.
On the smooth curves the model gives it typically takes 4-6, where bisection
needs 9-10. When the ends bracket no sign change, or an evaluated S is not
nondecreasing in fc, the rest of the grid is evaluated, so the result is the
exhaustive one. Monotonicity is checked only at the evaluated points, so fc*
equals the exhaustive scan's when S is nondecreasing on the whole grid; a
non-monotone stretch between evaluated points can go unseen.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gm_model import highpass, simulate
from .resp_spectrum import batch_sa_matrix, compute_sa, log_sa

log = logging.getLogger(__name__)

MAX_GRID_POINTS = 10 ** 5
# the matching criterion's periods: 30 log-spaced in [1, 10] s
MATCH_PERIODS = np.logspace(0.0, 1.0, 30)


@dataclass(frozen=True)
class FcSearchConfig:
    grid_lo: float = 0.0
    grid_hi: float = 2.0
    step: float = 0.01
    n_mc: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.grid_lo <= self.grid_hi < math.inf
                and 0 < self.step < math.inf):
            raise ValueError("need 0 <= grid_lo <= grid_hi and step > 0, all finite")
        # checked before the grid property allocates it
        if not (self.grid_hi - self.grid_lo) / self.step <= MAX_GRID_POINTS - 1:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
        if self.n_mc < 2:
            raise ValueError("n_mc must be >= 2")

    @property
    def grid(self):
        # the 1e-9 absorbs (hi - lo) / step landing just under an integer;
        # rounding up instead would add a point past grid_hi
        n = math.floor((self.grid_hi - self.grid_lo) / self.step + 1e-9) + 1
        return np.round(self.grid_lo + self.step * np.arange(n), 12)


@dataclass(frozen=True)
class FcResult:
    """fc_grid/epsilon_curve hold the evaluated candidates in ascending fc;
    fallback is True when the whole grid was evaluated; omega_nodes is the
    Monte Carlo batch's SimBatch.omega_nodes."""
    fc_star: float
    fc_grid: np.ndarray
    epsilon_curve: np.ndarray
    fallback: bool = True
    omega_nodes: int = 1

    @property
    def evals(self):
        return int(self.fc_grid.size)

    @property
    def fc_on_edge(self):
        # both grid ends are evaluated on every path
        return self.fc_star in (self.fc_grid[0], self.fc_grid[-1])


def epsilon(real_log_sa, sim_log_sa, signed=False):
    """Summed standardized bias over the match points (equal weights: the
    d log T measure is uniform on log-spaced points); its absolute value
    unless signed."""
    real_log_sa = np.asarray(real_log_sa, dtype=float)
    sim_log_sa = np.asarray(sim_log_sa, dtype=float)
    mean = sim_log_sa.mean(axis=0)
    std = sim_log_sa.std(axis=0, ddof=1)
    bad = std < 1e-12 * np.abs(mean)
    if np.any(bad):
        raise NumericalError(f"zero spread at match points {np.nonzero(bad)[0].tolist()}")
    bias = float(np.sum((real_log_sa - mean) / std))
    return bias if signed else abs(bias)


def _illinois(bias, n):
    """Narrow S(lo) < 0 <= S(hi) from the grid ends to adjacent indices by
    false position with the Illinois modification, and return that pair.
    Returns None when the ends bracket no sign change or an evaluated S
    breaks monotonicity in fc."""
    lo, hi = 0, n - 1
    if not bias(lo) < 0 <= bias(hi):
        return None
    w_lo, w_hi = bias(lo), bias(hi)  # interpolation weights
    moved = None  # the end the last step replaced
    budget = 2 * math.ceil(math.log2(hi - lo))
    while hi - lo > 1:
        x = lo + round(w_lo * (hi - lo) / (w_lo - w_hi))
        # Clip to the indices where either outcome leaves a bracket at most
        # 2^(budget-1) wide, which bisection closes with the budget left
        # after this step; the search thus ends within 2 + budget evaluations.
        half = 2 ** (budget - 1)
        x = min(max(x, lo + 1, hi - half), hi - 1, lo + half)
        budget -= 1
        s = bias(x)
        # every other evaluated point lies outside (lo, hi)
        if not bias(lo) <= s <= bias(hi):
            return None
        if s < 0:
            lo, w_lo = x, s
            if moved == "lo":
                w_hi /= 2
            moved = "lo"
        else:
            hi, w_hi = x, s
            if moved == "hi":
                w_lo /= 2
            moved = "hi"
    return lo, hi


def optimize_fc(record, params_no_fc, config=FcSearchConfig(), engine="spectral"):
    """Minimize epsilon(fc) over the grid with common random numbers and
    return the argmin over the evaluated candidates (ties break to the
    smallest fc). The candidates are the bracketing search's, or the whole
    grid on fallback; see the module docstring."""
    record = record.to_si()
    real_log_sa = log_sa(compute_sa(record.accel, record.dt, MATCH_PERIODS).sa)

    batch = simulate(params_no_fc, record.dt, config.n_mc, config.seed, engine)
    x3 = batch.realizations

    grid = config.grid
    signed = {}  # grid index -> S(fc); no candidate is evaluated twice

    def bias(i):
        if i not in signed:
            filtered = highpass(x3, grid[i], record.dt)
            sim_log_sa = log_sa(batch_sa_matrix(filtered, record.dt, MATCH_PERIODS))
            signed[i] = epsilon(real_log_sa, sim_log_sa, signed=True)
            log.debug("fc=%.3f Hz -> S=%.4f", grid[i], signed[i])
        return signed[i]

    fallback = _illinois(bias, grid.size) is None
    if fallback:
        for i in range(grid.size):
            bias(i)

    idx = sorted(signed)
    curve = np.abs([signed[i] for i in idx])
    fc_star = float(grid[idx[int(np.argmin(curve))]])  # argmin takes the first tie
    return FcResult(fc_star=fc_star, fc_grid=grid[idx], epsilon_curve=curve,
                    fallback=fallback, omega_nodes=batch.omega_nodes)
