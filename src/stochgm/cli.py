"""Command-line front end.

Subcommands: convert, simulate, spectrum, fit-fc, stats, sensitivity,
sample-params. CSV files are the authoritative outputs; SVG charts are a
convenience. Every run writes a machine-readable run_log.json into the
output directory. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.

Each subcommand imports the modules it calls, so a process loads only what
its subcommand needs: convert never imports scipy.signal, scipy.stats or
scipy.optimize.
"""

import argparse
import concurrent.futures
import csv
import json
import logging
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .catalog_io import G_ACCEL, load_catalog, write_at2
from .errors import DataError, NumericalError

log = logging.getLogger("stochgm")

# fixed default seed: reproducibility is the product, not entropy
DEFAULT_SEED = 20240715
CORR_PANEL_T2 = (0.1, 0.5, 1.0, 4.0)
# realizations x padded samples of one record's simulation (--n or --mc):
# 128 MiB per float64 array; the engines hold about five (n, m) arrays and
# the high-pass two (n, m + pad). Its square root caps the --periods COUNT,
# which sets the side of the COUNT x COUNT correlation matrices
MAX_SIM_ELEMENTS = 2 ** 24


# ---------------------------------------------------------------------------
# input boundary and helpers: manifests and numeric flags become validated
# inputs here; a bad one is a DataError (exit 2) naming the entry or flag
# ---------------------------------------------------------------------------

def _parse_triplet(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:value, got {text!r}")
    return tuple(float(p) for p in parts)


def _check_args(args):
    """Check the numeric flags, then turn --periods into the period grid
    and --fc-grid/--mc/--seed into args.fc_search."""
    for flag, least in (("n", 1), ("jobs", 1), ("seed", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise DataError(f"--{flag} must be at least {least}, got {value}")
    if hasattr(args, "periods"):
        lo, hi, count = args.periods
        most = math.isqrt(MAX_SIM_ELEMENTS)
        if not (0 < lo < hi < math.inf and count.is_integer()
                and 2 <= count <= most):
            raise DataError("--periods LO:HI:COUNT needs 0 < LO < HI < inf and "
                            f"a whole COUNT in [2, {most}], "
                            f"got {lo:g}:{hi:g}:{count:g}")
        from .resp_spectrum import standard_period_grid
        args.periods = standard_period_grid(n=int(count), lo=lo, hi=hi)
    if hasattr(args, "fc_grid"):
        from . import fc_opt
        try:
            args.fc_search = fc_opt.FcSearchConfig(
                *args.fc_grid, n_mc=args.mc, seed=args.seed, bracket=True)
        except ValueError as exc:
            raise DataError(f"--fc-grid/--mc: {exc}") from exc


def entry_params(entry, record, fc_default=None):
    """Build GMParams for a manifest entry, extracting the simple
    parameters from the record when the manifest omits them. The entry's
    params are keyed by catalog_io.PARAM_KEYS, the GMParams field names."""
    from .catalog_stats import extract_simple_params
    from .gm_model import GMParams

    p = dict(entry.params)
    missing = {"log_ai", "d595", "t_mid"} - set(p)
    if missing:
        p.update({k: v for k, v in extract_simple_params(record).items()
                  if k in missing})
    for key in ("omega_mid", "omega_rate", "zeta_f"):
        if key not in p:
            raise DataError(f"entry {entry.id}: manifest must supply {key}")
    p.setdefault("t_total", record.duration)
    p.setdefault("fc_hz", fc_default)
    return GMParams(**p)


def _load(manifest, params=False, fc_default=None, draws=None):
    """The non-empty catalog at `manifest` and, with params, each record's
    GMParams by id (entries and records pair by position: load_catalog
    builds both in manifest order). With draws = (flag, n, corners), every
    corner must suit the record's dt (highpass_pad), and n realizations of
    its simulation, padded for the largest of their high-pass pads, must
    fit in MAX_SIM_ELEMENTS; corners None means the entry's fc_hz."""
    catalog = load_catalog(manifest)
    if len(catalog) == 0:
        raise DataError(f"catalog from {manifest} is empty")
    if not params:
        return catalog
    from .gm_model import highpass_pad, n_samples

    built = {}
    for entry, rec in zip(catalog.entries, catalog.records):
        try:
            p = built[entry.id] = entry_params(entry, rec, fc_default)
        except ValueError as exc:
            raise DataError(f"entry {entry.id}: {exc}") from exc
        if draws:
            flag, n, corners = draws
            try:
                m = n_samples(p, rec.dt) + max(
                    highpass_pad(fc, rec.dt) for fc in corners or (p.fc_hz,))
            except DataError as exc:
                raise DataError(f"entry {entry.id}: {exc}") from exc
            if n * m > MAX_SIM_ELEMENTS:
                raise DataError(f"entry {entry.id}: {flag} {n} realizations x {m} "
                                f"samples exceeds {MAX_SIM_ELEMENTS} elements")
    return catalog, built


def _theta(manifest, command):
    """The catalog and its (n_records, 7) parameter matrix, columns ordered
    as sensitivity.PARAM_LABELS; every entry must supply fc_hz."""
    from . import sensitivity

    catalog, params = _load(manifest, params=True)
    for rec_id, p in params.items():
        if p.fc_hz is None:
            raise DataError(f"entry {rec_id}: {command} needs fc_hz in manifest")
    return catalog, np.array([[getattr(p, k) for k in sensitivity.PARAM_LABELS]
                              for p in params.values()])


def _per_record(fn, records, jobs=1):
    """[fn(rec) for rec in records], on `jobs` threads when jobs > 1. A
    DataError from one record is re-raised naming its entry."""
    def one(rec):
        try:
            return fn(rec)
        except DataError as exc:
            raise DataError(f"entry {rec.id}: {exc}") from exc

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(one, records))
    return [one(rec) for rec in records]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_matrix_csv(path, periods, matrix):
    """Dense matrix with a period header row and column."""
    _write_csv(path, ["T1_s\\T2_s"] + [f"{t:.6g}" for t in periods],
               [[f"{t1:.6g}"] + [f"{v:.10g}" for v in row]
                for t1, row in zip(periods, matrix)])


def _spectra_health(records, spectra):
    """run_log health of the records' response spectra: the record x
    period pairs with T < 2 dt and the largest refine factor the kernel
    used."""
    from .resp_spectrum import refine_factor

    return {"under_resolved_periods": int(sum(s.under_resolved.sum() for s in spectra)),
            "max_refine": max(refine_factor(rec.dt, s.periods.min())
                              for rec, s in zip(records, spectra))}


def _catalog_log_sa(catalog, periods, jobs):
    """(n_records, n_periods) log Sa of the catalog's records, and the
    records' spectra."""
    from .resp_spectrum import compute_sa, log_sa

    def one(rec):
        spec = compute_sa(rec.accel, rec.dt, periods)
        return log_sa(spec.sa), spec

    rows, spectra = zip(*_per_record(one, catalog.records, jobs))
    return np.vstack(rows), spectra


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_convert(args):
    catalog = _load(args.manifest)
    for rec in catalog:
        out = os.path.join(args.out, f"{rec.id}.AT2")
        with open(out, "w") as fh:
            fh.write(write_at2(rec))
        _write_csv(os.path.join(args.out, f"{rec.id}.csv"),
                   ["t_s", "accel_g"],
                   [(f"{i * rec.dt:.6g}", f"{a / G_ACCEL:.7e}")
                    for i, a in enumerate(rec.accel)])
    return {"records": len(catalog)}


def cmd_simulate(args):
    from .gm_model import apply_highpass, simulate

    catalog, params = _load(args.manifest, params=True, fc_default=0.0,
                            draws=("--n", args.n, None))

    def one(rec):
        p = params[rec.id]
        batch = simulate(p, rec.dt, args.n, args.seed, args.engine)
        if p.fc_hz:
            batch = apply_highpass(batch, p.fc_hz)
        batch.save_npz(os.path.join(args.out, f"{rec.id}_batch.npz"))
        a = batch.realizations
        ai = np.pi / (2 * G_ACCEL) * np.trapezoid(a ** 2, dx=batch.dt, axis=1)
        pga = np.abs(a).max(axis=1)
        _write_csv(os.path.join(args.out, f"{rec.id}_summary.csv"),
                   ["realization", "arias_m_per_s", "pga_ms2"],
                   [(i, f"{ai[i]:.6g}", f"{pga[i]:.6g}") for i in range(len(ai))])
        return {"id": rec.id, "mean_ai": float(ai.mean()),
                "mean_pga": float(pga.mean()),
                "sigma_floor_hits": batch.sigma_floor_hits}

    return {"batches": _per_record(one, catalog.records), "engine": args.engine,
            "n": args.n}


def cmd_spectrum(args):
    from .resp_spectrum import compute_sa

    catalog = _load(args.manifest)
    spectra = []
    for rec in catalog:
        spec = compute_sa(rec.accel, rec.dt, args.periods)
        spectra.append(spec)
        path = os.path.join(args.out, f"{rec.id}_spectrum.csv")
        with open(path, "w", newline="") as fh:
            fh.write(f"# damping = {spec.damping}\n")
            w = csv.writer(fh)
            w.writerow(["T_s", "Sa_g"])
            w.writerows((f"{t:.6g}", f"{s:.8g}")
                        for t, s in zip(spec.periods, spec.sa_g))
    return {"records": len(catalog), "n_periods": int(args.periods.size),
            "health": _spectra_health(catalog.records, spectra)}


def cmd_fit_fc(args):
    from . import fc_opt

    grid = args.fc_search.grid
    ends = (float(grid[grid > 0][0]), float(grid[-1])) if grid[-1] > 0 else (0.0,)
    catalog, params = _load(args.manifest, params=True,
                            draws=("--mc", args.mc, ends))

    def one(rec):
        return fc_opt.optimize_fc(rec, params[rec.id].with_fc(None),
                                  args.fc_search, args.engine)

    results = dict(zip(params, _per_record(one, catalog.records, args.jobs)))
    for rid, res in results.items():
        _write_csv(os.path.join(args.out, f"{rid}_epsilon.csv"), ["fc_hz", "epsilon"],
                   [(f"{f:.4g}", f"{e:.8g}")
                    for f, e in zip(res.fc_grid, res.epsilon_curve)])
    _write_csv(os.path.join(args.out, "fc_table.csv"), ["id", "fc_star_hz"],
               [(rid, f"{res.fc_star:.4g}") for rid, res in results.items()])
    return {"fc_star": {rid: res.fc_star for rid, res in results.items()},
            "search": {rid: {"evals": res.evals, "fallback": res.fallback,
                             "fc_on_edge": res.fc_on_edge}
                       for rid, res in results.items()}}


def _stats_outputs(tag, spectra, periods, out_dir):
    from . import catalog_stats

    q05 = catalog_stats.spectral_quantiles(spectra, 0.05)
    q50 = catalog_stats.spectral_quantiles(spectra, 0.50)
    q95 = catalog_stats.spectral_quantiles(spectra, 0.95)
    std = catalog_stats.spectral_std(spectra)
    _write_csv(os.path.join(out_dir, f"{tag}_stats.csv"),
               ["T_s", "q05_logsa", "q50_logsa", "q95_logsa", "std_logsa"],
               [(f"{t:.6g}", f"{a:.8g}", f"{b:.8g}", f"{c:.8g}", f"{d:.8g}")
                for t, a, b, c, d in zip(periods, q05, q50, q95, std)])
    rho = catalog_stats.spectral_correlation(spectra)
    _write_matrix_csv(os.path.join(out_dir, f"{tag}_correlation.csv"),
                      periods, rho)
    return {"q05": q05, "q50": q50, "q95": q95, "std": std, "rho": rho}


def cmd_stats(args):
    from . import svgplot

    periods = args.periods
    stats, records, spectra = {}, [], []
    for tag, manifest in (("recorded", args.manifest), ("synthetic", args.compare)):
        if manifest:
            catalog = _load(manifest)
            log_sa, specs = _catalog_log_sa(catalog, periods, args.jobs)
            stats[tag] = _stats_outputs(tag, log_sa, periods, args.out)
            records += catalog.records
            spectra += specs

    # quantile/std chart, one panel per statistic
    charts = []
    for key, label in (("q05", "5% quantile"), ("q50", "median"),
                       ("q95", "95% quantile"), ("std", "std")):
        chart = svgplot.LineChart(title=f"log Sa {label}", xlabel="T (s)",
                                  ylabel="log Sa")
        for tag, st in stats.items():
            chart.add_line(periods, st[key], label=tag, dashed=tag != "recorded")
        charts.append(chart)
    with open(os.path.join(args.out, "stats.svg"), "w") as fh:
        fh.write(svgplot.panel_grid(charts))

    # correlation chart: 4 panels at fixed T2
    charts = []
    for t2 in CORR_PANEL_T2:
        j2 = int(np.argmin(np.abs(periods - t2)))
        chart = svgplot.LineChart(title=f"rho(T1, T2={t2:g}s)", xlabel="T1 (s)",
                                  ylabel="correlation")
        for tag, st in stats.items():
            chart.add_line(periods, st["rho"][:, j2], label=tag,
                           dashed=tag != "recorded")
        charts.append(chart)
    with open(os.path.join(args.out, "correlation.svg"), "w") as fh:
        fh.write(svgplot.panel_grid(charts))
    return {"catalogs": list(stats), "n_periods": int(periods.size),
            "health": _spectra_health(records, spectra)}


def cmd_sensitivity(args):
    from . import sensitivity, svgplot

    catalog, theta = _theta(args.manifest, "sensitivity")
    try:
        dm = sensitivity.DesignMatrix(theta)
    except ValueError as exc:
        raise DataError(f"--manifest {args.manifest}: {exc}") from exc
    periods = args.periods
    log_sa, spectra = _catalog_log_sa(catalog, periods, args.jobs)
    bundle = sensitivity.fit_bundle(dm, log_sa, periods)

    r2 = sensitivity.r2_curve(bundle)
    _write_csv(os.path.join(args.out, "r2.csv"), ["T_s", "r2"],
               [(f"{t:.6g}", f"{v:.8g}") for t, v in zip(periods, r2)])

    wc = sensitivity.weighted_coefficients(bundle)
    _write_csv(os.path.join(args.out, "weighted_coefficients.csv"),
               ["T_s"] + list(sensitivity.PARAM_LABELS),
               [[f"{t:.6g}"] + [f"{wc[i, j]:.8g}" for i in range(wc.shape[0])]
                for j, t in enumerate(periods)])

    var_rows = {}
    for mode in ("full", "const_fc", "no_cov"):
        surf = (sensitivity.baseline_surfaces(bundle) if mode == "full"
                else sensitivity.scenario_neglect_fc(bundle, mode))
        _write_matrix_csv(os.path.join(args.out, f"rho_{mode}.csv"),
                          periods, surf["rho"])
        var_rows[mode] = surf["var"]
    _write_csv(os.path.join(args.out, "variance_scenarios.csv"),
               ["T_s", "var_full", "var_const_fc", "var_no_cov"],
               [(f"{t:.6g}",) + tuple(f"{var_rows[k][j]:.8g}"
                                      for k in ("full", "const_fc", "no_cov"))
                for j, t in enumerate(periods)])

    rows = []
    for t2 in CORR_PANEL_T2:
        t2g = periods[int(np.argmin(np.abs(periods - t2)))]
        for t1 in periods:
            pct = sensitivity.covariance_percentages(bundle, t1, t2g)
            rows.append((f"{t1:.6g}", f"{t2g:.6g}")
                        + tuple(f"{v:.12g}" for v in pct.values()))
    _write_csv(os.path.join(args.out, "covariance_percentages.csv"),
               ["T1_s", "T2_s", "pct_term1", "pct_term2", "pct_term3", "pct_term4"],
               rows)

    chart = svgplot.LineChart(title="R^2", xlabel="T (s)", ylabel="R^2")
    chart.add_line(periods, r2, label="full")
    with open(os.path.join(args.out, "r2.svg"), "w") as fh:
        fh.write(chart.render())
    return {"r2_range": [float(r2.min()), float(r2.max())],
            "health": _spectra_health(catalog.records, spectra)}


def cmd_sample_params(args):
    from . import param_dist, sensitivity

    _, theta = _theta(args.manifest, "sample-params")

    marginals = tuple(
        param_dist.fit_marginal(theta[:, j], fam)
        for j, fam in enumerate(param_dist.DEFAULT_FAMILIES))
    corr = param_dist.fit_copula(theta, marginals)
    model = param_dist.JointParamModel(marginals=marginals, correlation=corr,
                                       labels=sensitivity.PARAM_LABELS)
    param_dist.save_joint_model(model, os.path.join(args.out, "joint_model.txt"))

    draws = param_dist.sample_params(model, args.n, args.seed)
    _write_csv(os.path.join(args.out, "sampled_params.csv"),
               list(sensitivity.PARAM_LABELS),
               [[f"{v:.8g}" for v in row] for row in draws])
    return {"n_sampled": int(draws.shape[0])}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# subcommand -> (handler, help, flags besides --manifest/--out)
SUBCOMMANDS = {
    "convert": (cmd_convert, "re-emit records as AT2 + CSV", ()),
    "simulate": (cmd_simulate, "simulate realization batches",
                 ("seed", "engine", "n")),
    "spectrum": (cmd_spectrum, "response spectra of records", ("periods",)),
    "fit-fc": (cmd_fit_fc, "optimize fc per record",
               ("seed", "jobs", "engine", "mc", "fc_grid")),
    "stats": (cmd_stats, "catalog spectral statistics",
              ("jobs", "periods", "compare")),
    "sensitivity": (cmd_sensitivity, "regression sensitivity analysis",
                    ("jobs", "periods")),
    "sample-params": (cmd_sample_params, "fit joint model and sample",
                      ("seed", "n")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochgm",
        description="Stochastic ground-motion simulation with optimized "
                    "high-pass corner frequency")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--manifest", required=True, help="catalog manifest file")
        sp.add_argument("--out", default=".", help="output directory")
        if "seed" in flags:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if "jobs" in flags:
            sp.add_argument("--jobs", type=int, default=1, help="worker pool size")
        if "engine" in flags:
            sp.add_argument("--engine", choices=("temporal", "spectral"),
                            default="spectral")
        if "n" in flags:
            sp.add_argument("--n", type=int, default=100,
                            help="number of realizations / samples")
        if "mc" in flags:
            sp.add_argument("--mc", type=int, default=100,
                            help="Monte Carlo samples per grid point")
        if "fc_grid" in flags:
            sp.add_argument("--fc-grid", type=_parse_triplet, default=(0.0, 2.0, 0.01),
                            metavar="LO:HI:STEP", help="corner-frequency grid (Hz)")
        if "periods" in flags:
            sp.add_argument("--periods", type=_parse_triplet,
                            default=(0.05, 10.0, 100.0), metavar="LO:HI:COUNT",
                            help="log-spaced period grid (s)")
        if "compare" in flags:
            sp.add_argument("--compare", default=None,
                            help="second manifest (synthetic catalog) for comparison")
    return parser


def main(argv=None):
    t0 = time.monotonic()
    level = os.environ.get("STOCHGM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    os.makedirs(args.out, exist_ok=True)
    run_log = {
        "command": args.command,
        "argv": sys.argv[1:] if argv is None else list(argv),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": getattr(args, "seed", None),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "stochgm": __version__},
    }
    code = 0
    try:
        _check_args(args)
        run_log["result"] = args.func(args)
        run_log["status"] = "ok"
    except (DataError, OSError, NumericalError) as exc:
        code, status, what = ((3, "numerical_error", "numerical failure")
                              if isinstance(exc, NumericalError)
                              else (2, "data_error", "error"))
        log.error("%s", exc)
        print(f"stochgm: {what}: {exc}", file=sys.stderr)
        run_log.update(status=status, error=str(exc))
    run_log["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    run_log["elapsed_s"] = time.monotonic() - t0
    with open(os.path.join(args.out, "run_log.json"), "w") as fh:
        json.dump(run_log, fh, indent=2, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
