"""Synthetic catalogs for the benchmark workloads, generated from a seed.

Every catalog is built with the package's own simulator and written the way
a user would hand it to the CLI: one AT2 file per record plus a manifest.
Record counts, sampling intervals and lengths are fixed per workload, so the
work the CLI does is the same for every seed; the seed only moves the
parameter values and the noise (fit_fc's records are fixed, see below).
"""

import math
import os

import numpy as np

from stochgm import GMParams, apply_highpass, simulate_spectral, write_at2
from stochgm.catalog_io import AccelerogramRecord

# fit_fc: the acceptance suite's corner-frequency self-recovery inputs (its
# parameter set, record noise seed 909, fc_true 0.2 and 0.5 Hz at dt 0.02 s),
# whose 0.1 Hz tolerance the fit_fc check reuses. The benchmark seed moves
# the CLI's Monte Carlo seed. Records drawn with other noise seeds miss that
# tolerance often (see README.md), so they cannot carry the check.
FIT_DT = 0.02
FIT_PARAMS = GMParams(log_ai=math.log(0.5), d595=10.0, t_mid=5.0,
                      omega_mid=15.0, omega_rate=-0.2, zeta_f=0.3, t_total=25.0)
FIT_RECORD_SEED = 909
FIT_FC_TRUE = (0.2, 0.5)

# catalog: parameter sets x realizations, with a fixed (dt, length) per set
CATALOG_SETS = 12
CATALOG_REALIZATIONS = 4
COMPARE_REALIZATIONS = 2
CATALOG_SHAPES = ((0.005, 20.0), (0.01, 40.0), (0.02, 60.0),
                  (0.01, 30.0), (0.02, 40.0), (0.005, 20.0))  # (dt s, length s)

# simulate: record lengths (samples) at one dt, with a fixed corner per record
SIM_DT = 0.01
SIM_RECORDS = ((2001, 0.3), (3001, 0.4), (4001, 0.5))  # (m, fc Hz)


def draw_params(rng, t_total):
    """One parameter set; times scale with the record length so the
    modulator problem stays solvable (it is scale invariant)."""
    s = t_total / 25.0
    return GMParams(log_ai=float(np.log(rng.uniform(0.3, 0.7))),
                    d595=float(rng.uniform(8.0, 12.0) * s),
                    t_mid=float(rng.uniform(4.0, 5.5) * s),
                    omega_mid=float(rng.uniform(12.0, 18.0)),
                    omega_rate=float(rng.uniform(-0.2, 0.1) / s),
                    zeta_f=float(rng.uniform(0.2, 0.5)),
                    t_total=t_total)


def records(ids, params, dt, fc, seed, m=None):
    """Simulated, high-passed realizations of one parameter set, one per
    id; truncated to m samples when m is given (the filter pads each
    series by its kernel length)."""
    batch = apply_highpass(simulate_spectral(params, dt, len(ids), seed), fc)
    return [AccelerogramRecord(id=rec_id, dt=dt, accel=accel[:m], unit="m/s2")
            for rec_id, accel in zip(ids, batch.realizations)]


def write_catalog(root, name, entries):
    """entries: (record, params, fc or None). Writes AT2 files and
    <name>.txt; returns the manifest path."""
    blocks = []
    for rec, p, fc in entries:
        with open(os.path.join(root, f"{rec.id}.AT2"), "w") as fh:
            fh.write(write_at2(rec))
        lines = [f"id = {rec.id}", f"path = {rec.id}.AT2",
                 f"log_ai = {p.log_ai!r}", f"d595 = {p.d595!r}",
                 f"t_mid = {p.t_mid!r}", f"omega_mid = {p.omega_mid!r}",
                 f"omega_rate = {p.omega_rate!r}", f"zeta_f = {p.zeta_f!r}",
                 f"t_total = {p.t_total!r}"]
        if fc is not None:
            lines.append(f"fc_hz = {fc!r}")
        blocks.append("\n".join(lines))
    path = os.path.join(root, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write("\n\n".join(blocks) + "\n")
    return path


def build_fit_fc(root, seed):
    """Two records with known corners; the manifest omits fc_hz.
    Returns {manifest, fc_true: {id: Hz}}. The records do not depend on
    the seed."""
    entries, truth = [], {}
    for i, fc in enumerate(FIT_FC_TRUE):
        [rec] = records([f"fit{i}"], FIT_PARAMS, FIT_DT, fc, FIT_RECORD_SEED)
        entries.append((rec, FIT_PARAMS, None))
        truth[rec.id] = fc
    return {"manifest": write_catalog(root, "fit_fc", entries), "fc_true": truth}


def build_catalog(root, seed):
    """Main catalog (sets x realizations) and a smaller comparison catalog
    from the same parameter sets. Returns {manifest, compare, ids}."""
    rng = np.random.default_rng([seed, 2])
    main, compare = [], []
    for k in range(CATALOG_SETS):
        dt, t_total = CATALOG_SHAPES[k % len(CATALOG_SHAPES)]
        m = int(round(t_total / dt)) + 1
        p = draw_params(rng, t_total)
        fc = float(rng.uniform(0.1, 0.7))
        ids = ([f"c{k:02d}r{r}" for r in range(CATALOG_REALIZATIONS)]
               + [f"s{k:02d}r{r}" for r in range(COMPARE_REALIZATIONS)])
        recs = records(ids, p, dt, fc, int(rng.integers(2 ** 31)), m)
        main += [(rec, p, fc) for rec in recs[:CATALOG_REALIZATIONS]]
        compare += [(rec, p, fc) for rec in recs[CATALOG_REALIZATIONS:]]
    return {"manifest": write_catalog(root, "catalog", main),
            "compare": write_catalog(root, "compare", compare),
            "ids": [rec.id for rec, _, _ in main]}


def build_simulate(root, seed):
    """Records of fixed length with fc set in the manifest. Returns
    {manifest, m: {id: samples}}."""
    rng = np.random.default_rng([seed, 3])
    entries, lengths = [], {}
    for i, (m, fc) in enumerate(SIM_RECORDS):
        p = draw_params(rng, (m - 1) * SIM_DT)
        [rec] = records([f"sim{i}"], p, SIM_DT, fc, int(rng.integers(2 ** 31)), m)
        entries.append((rec, p, fc))
        lengths[rec.id] = m
    return {"manifest": write_catalog(root, "simulate", entries), "m": lengths}


CATALOGS = {"fit_fc": build_fit_fc, "catalog": build_catalog,
            "simulate": build_simulate}
