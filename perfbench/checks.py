"""Checks on the outputs of the benchmark's CLI invocations.

Each check raises CheckFailed with a message. None of them depends on the
exact noise bits: they test properties and tolerances that hold for any
seed and any assignment of noise substreams to records.
"""

import csv
import json
import math
import os
import re

import numpy as np
from scipy.signal import lsim

G = 9.80665
FC_TOLERANCE_HZ = 0.1       # the acceptance suite's self-recovery tolerance
SA_REL_TOLERANCE = 2e-3     # spectrum against the lsim reference
CLI_PER_CYCLE = 32          # the documented peak sampling of the spectrum
REFERENCE_PER_CYCLE = 64    # reference sampling, points per oscillator cycle
RESIDUAL_RATIO = 1e-3       # end velocity/displacement against their peaks
ENGINE_AI_MAX_Z = 5.0       # engines' mean Arias intensity, in standard errors
REFERENCE_PERIOD_INDEX = (0, 12, 25, 50, 99)  # of the 100-period grid


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_csv(path):
    """Header and rows of a CSV file, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def numbers(rows, start=0):
    return np.array([[float(v) for v in r[start:]] for r in rows])


def run_log_ok(out):
    with open(os.path.join(out, "run_log.json")) as fh:
        status = json.load(fh).get("status")
    expect(status == "ok", f"{out}: run_log status {status!r}")


# --- fit_fc -----------------------------------------------------------------

def fit_fc(out, fc_true):
    """Every record in fc_table.csv within the tolerance of its true corner,
    and a finite epsilon curve. Returns the largest recovery error."""
    _, rows = read_csv(os.path.join(out, "fc_table.csv"))
    found = {r[0]: float(r[1]) for r in rows}
    errs = []
    for rec_id, fc in fc_true.items():
        expect(rec_id in found, f"{rec_id} missing from fc_table.csv")
        err = abs(found[rec_id] - fc)
        expect(err <= FC_TOLERANCE_HZ + 1e-9,
               f"{rec_id}: fc* = {found[rec_id]} Hz, true {fc} Hz")
        errs.append(err)
        _, eps = read_csv(os.path.join(out, f"{rec_id}_epsilon.csv"))
        expect(len(eps) > 0 and np.all(np.isfinite(numbers(eps))),
               f"{rec_id}: non-finite or empty epsilon curve")
    return max(errs)


# --- catalog ----------------------------------------------------------------

def convert(out, ids):
    for rec_id in ids:
        for ext in (".AT2", ".csv"):
            expect(os.path.getsize(os.path.join(out, rec_id + ext)) > 0,
                   f"convert wrote no {rec_id}{ext}")


def read_at2(path):
    """Acceleration (m/s^2) and dt of an AT2 file in the NPTS=/DT= style."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[3]
    npts = int(re.search(r"NPTS\s*=\s*(\d+)", head).group(1))
    dt = float(re.search(r"DT\s*=\s*([0-9.Ee+-]+)", head).group(1))
    accel = np.array(" ".join(lines[4:]).split(), dtype=float) * G
    expect(accel.size == npts, f"{path}: {accel.size} samples, header {npts}")
    return accel, dt


def reference_sa_g(accel, dt, period, damping=0.05):
    """Pseudo-acceleration (g) by scipy.signal.lsim with linear
    interpolation of the same piecewise-linear input.

    The response is sampled on a grid of at least REFERENCE_PER_CYCLE
    points per cycle that contains the CLI's own sample points (the base
    step split so there are at least CLI_PER_CYCLE per cycle). Returns
    (peak on the CLI's points, peak on the whole grid).
    """
    r_cli = max(1, math.ceil(CLI_PER_CYCLE * dt / period))
    step = math.ceil(REFERENCE_PER_CYCLE * dt / (period * r_cli))
    r = r_cli * step
    t = np.arange(accel.size) * dt
    tf = np.arange((accel.size - 1) * r + 1) * (dt / r)
    w = 2 * math.pi / period
    system = ([[0.0, 1.0], [-w * w, -2 * damping * w]], [[0.0], [1.0]],
              [[1.0, 0.0]], [[0.0]])
    _, u, _ = lsim(system, np.interp(tf, t, -accel), tf, interp=True)
    u = np.abs(u) * (w * w / G)
    return u[::step].max(), u.max()


def spectrum_reference(at2_paths):
    """{id: {period index: (Sa on the CLI's points, fine-grid Sa), in g}}
    for REFERENCE_PERIOD_INDEX of the default grid; computed once per run."""
    grid = np.logspace(math.log10(0.05), 1.0, 100)
    ref = {}
    for rec_id, path in at2_paths.items():
        accel, dt = read_at2(path)
        ref[rec_id] = {j: reference_sa_g(accel, dt, grid[j])
                       for j in REFERENCE_PERIOD_INDEX}
    return ref


def spectrum(out, ids, reference):
    """100 positive ordinates per record; on the reference records, Sa
    agrees with the reference on the CLI's sample points, and lies between
    the fine-grid peak and the least a peak sampled CLI_PER_CYCLE times
    per cycle can read (cos(pi/32) of it, as for a sinusoid)."""
    low = math.cos(math.pi / CLI_PER_CYCLE) - SA_REL_TOLERANCE
    for rec_id in ids:
        _, rows = read_csv(os.path.join(out, f"{rec_id}_spectrum.csv"))
        sa = numbers(rows)
        expect(sa.shape == (100, 2) and np.all(sa[:, 1] > 0),
               f"{rec_id}: spectrum is not 100 positive ordinates")
        for j, (same, fine) in reference.get(rec_id, {}).items():
            got = sa[j, 1]
            rel = abs(got - same) / same
            expect(rel <= SA_REL_TOLERANCE,
                   f"{rec_id} T={sa[j, 0]:g}s: Sa {got:.8g} g vs reference "
                   f"{same:.8g} g on the same points (rel {rel:.2e})")
            expect(low * fine <= got <= (1 + SA_REL_TOLERANCE) * fine,
                   f"{rec_id} T={sa[j, 0]:g}s: Sa {got:.8g} g outside "
                   f"[{low:.4f}, {1 + SA_REL_TOLERANCE}] x fine-grid peak {fine:.8g} g")


def _unit_symmetric(path):
    _, rows = read_csv(path)
    rho = numbers(rows, start=1)
    expect(rho.shape[0] == rho.shape[1], f"{path}: not square")
    expect(np.all(np.isfinite(rho)), f"{path}: non-finite entries")
    expect(np.allclose(rho, rho.T, rtol=0, atol=1e-9), f"{path}: not symmetric")
    expect(np.all(np.diag(rho) == 1.0), f"{path}: diagonal is not 1")


def stats(out, tags=("recorded", "synthetic")):
    for tag in tags:
        _, rows = read_csv(os.path.join(out, f"{tag}_stats.csv"))
        q = numbers(rows)
        expect(np.all(q[:, 1] <= q[:, 2]) and np.all(q[:, 2] <= q[:, 3]),
               f"{tag}_stats.csv: quantiles out of order")
        _unit_symmetric(os.path.join(out, f"{tag}_correlation.csv"))


def sensitivity(out):
    for mode in ("full", "const_fc", "no_cov"):
        _unit_symmetric(os.path.join(out, f"rho_{mode}.csv"))
    _, rows = read_csv(os.path.join(out, "covariance_percentages.csv"))
    pct = numbers(rows, start=2)
    total = pct.sum(axis=1)
    scale = np.maximum(100.0, np.abs(pct).sum(axis=1))
    expect(np.all(np.abs(total - 100.0) <= 1e-8 * scale),
           "covariance_percentages.csv: a row does not sum to 100")


def sample_params(out, n):
    header, rows = read_csv(os.path.join(out, "sampled_params.csv"))
    x = numbers(rows)
    expect(x.shape == (n, len(header)) and np.all(np.isfinite(x)),
           f"sampled_params.csv: want {n} finite rows, got {x.shape}")


# --- simulate ---------------------------------------------------------------

def simulate(out, lengths, n):
    """Batch shape, finiteness and settled velocity/displacement; returns
    {id: per-realization Arias intensity} from the summary CSV."""
    ais = {}
    for rec_id, m in lengths.items():
        with np.load(os.path.join(out, f"{rec_id}_batch.npz")) as z:
            acc = z["realizations"]
            dt = float(z["dt"])
        expect(acc.shape[0] == n and acc.shape[1] >= m,
               f"{rec_id}: batch shape {acc.shape}, want ({n}, >= {m})")
        expect(np.all(np.isfinite(acc)), f"{rec_id}: non-finite samples")
        vel = np.cumsum(acc, axis=-1) * dt
        disp = np.cumsum(vel, axis=-1) * dt
        for name, x in (("velocity", vel), ("displacement", disp)):
            ratio = np.abs(x[:, -1]) / np.abs(x).max(axis=-1)
            expect(ratio.max() <= RESIDUAL_RATIO,
                   f"{rec_id}: end {name} is {ratio.max():.2e} of its peak")
        _, rows = read_csv(os.path.join(out, f"{rec_id}_summary.csv"))
        ai = numbers(rows)[:, 1]
        expect(ai.size == n and np.all(ai > 0), f"{rec_id}: bad summary")
        ais[rec_id] = ai
    return ais


def engines_agree(ai_a, ai_b):
    """Per record, the two engines' mean Arias intensities differ by at most
    ENGINE_AI_MAX_Z combined standard errors of the two means. (With n = 200
    the means scatter by a few percent, so a fixed percentage would fail
    some seeds; a broken engine scale still fails this.)"""
    for rec_id, a in ai_a.items():
        b = ai_b[rec_id]
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        z = abs(a.mean() - b.mean()) / se
        expect(z <= ENGINE_AI_MAX_Z,
               f"{rec_id}: engines' mean Arias intensity {a.mean():.6g} vs "
               f"{b.mean():.6g} differ by {z:.2f} standard errors")


# --- output identity --------------------------------------------------------

def same_outputs(dir_a, dir_b, only=None):
    """Files of two output directories agree: byte for byte, except npz
    (array contents; the zip entries carry write times) and run_log.json
    (its timestamps and argv). cli.log, the benchmark's capture of the
    process output, is not compared."""
    def listing(d):
        return sorted(n for n in os.listdir(d) if n != "cli.log")
    names = sorted(only) if only is not None else listing(dir_a)
    expect(only is not None or names == listing(dir_b),
           f"{dir_a} and {dir_b} hold different files")
    for name in names:
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if name.endswith(".npz"):
            with np.load(pa) as za, np.load(pb) as zb:
                same = sorted(za.files) == sorted(zb.files) and all(
                    za[k].dtype == zb[k].dtype and za[k].shape == zb[k].shape
                    and za[k].tobytes() == zb[k].tobytes() for k in za.files)
        elif name == "run_log.json":
            with open(pa) as fa, open(pb) as fb:
                la, lb = json.load(fa), json.load(fb)
            same = all(la.get(k) == lb.get(k) for k in ("command", "seed", "status",
                                                        "result"))
        else:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                same = fa.read() == fb.read()
        expect(same, f"{name} differs between {dir_a} and {dir_b}")
