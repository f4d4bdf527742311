"""Command-line front end.

Subcommands: convert, simulate, spectrum, fit-fc, stats, sensitivity,
sample-params. CSV files are the authoritative outputs; SVG charts are a
convenience. Every run writes a machine-readable run_log.json into the
output directory. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

import argparse
import concurrent.futures
import csv
import json
import logging
import os
import sys
import time

import numpy as np

from . import catalog_stats, fc_opt, param_dist, sensitivity, svgplot
from .catalog_io import load_catalog, write_at2
from .errors import DataError, NumericalError
from .gm_model import G_ACCEL, GMParams, apply_highpass, simulate
from .resp_spectrum import batch_sa_matrix, compute_sa, standard_period_grid

log = logging.getLogger("stochgm")

# fixed default seed: reproducibility is the product, not entropy
DEFAULT_SEED = 20240715
CORR_PANEL_T2 = (0.1, 0.5, 1.0, 4.0)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_triplet(text, kind=float):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:value, got {text!r}")
    return tuple(kind(p) for p in parts[:2]) + (float(parts[2]),)


def _period_grid(args):
    if args.periods is None:
        return standard_period_grid()
    lo, hi, count = args.periods
    return standard_period_grid(n=int(count), lo=lo, hi=hi)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_matrix_csv(path, periods, matrix):
    """Dense matrix with a period header row and column."""
    header = ["T1_s\\T2_s"] + [f"{t:.6g}" for t in periods]
    rows = [[f"{t1:.6g}"] + [f"{v:.10g}" for v in row]
            for t1, row in zip(periods, matrix)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def entry_params(entry, record, fc_default=None):
    """Build GMParams for a manifest entry, extracting the simple
    parameters from the record when the manifest omits them."""
    p = dict(entry.params)
    missing = {"log_ai", "d595", "t_mid"} - set(p)
    if missing:
        p.update({k: v for k, v in
                  catalog_stats.extract_simple_params(record).items()
                  if k in missing})
    for key in ("omega_mid", "omega_rate", "zeta_f"):
        if key not in p:
            raise DataError(f"entry {entry.id}: manifest must supply {key}")
    p.setdefault("t_total", record.duration)
    fc = p.pop("fc_hz", fc_default)
    return GMParams(log_ai=p["log_ai"], d595=p["d595"], t_mid=p["t_mid"],
                    omega_mid=p["omega_mid"], omega_rate=p["omega_rate"],
                    zeta_f=p["zeta_f"], t_total=p["t_total"], fc_hz=fc)


def _catalog_log_sa(catalog, periods, jobs):
    def one(rec):
        return np.log(compute_sa(rec.accel, rec.dt, periods).sa)

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one, catalog.records))
    else:
        rows = [one(r) for r in catalog.records]
    return catalog_stats.SpectraMatrix(
        log_sa=np.vstack(rows), periods=periods,
        ids=tuple(r.id for r in catalog.records))


def _require_nonempty(catalog, manifest):
    if len(catalog) == 0:
        raise DataError(f"catalog from {manifest} is empty")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_convert(args):
    catalog = load_catalog(args.manifest)
    _require_nonempty(catalog, args.manifest)
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
    catalog = load_catalog(args.manifest)
    _require_nonempty(catalog, args.manifest)
    summary = []
    for rec in catalog:
        params = entry_params(catalog.entry(rec.id), rec, fc_default=0.0)
        batch = simulate(params, rec.dt, args.n, args.seed, args.engine)
        if params.fc_hz:
            batch = apply_highpass(batch, params.fc_hz)
        batch.save_npz(os.path.join(args.out, f"{rec.id}_batch.npz"))
        a = batch.realizations
        ai = np.pi / (2 * G_ACCEL) * np.trapezoid(a ** 2, dx=batch.dt, axis=1)
        pga = np.abs(a).max(axis=1)
        _write_csv(os.path.join(args.out, f"{rec.id}_summary.csv"),
                   ["realization", "arias_m_per_s", "pga_ms2"],
                   [(i, f"{ai[i]:.6g}", f"{pga[i]:.6g}") for i in range(len(ai))])
        summary.append({"id": rec.id, "mean_ai": float(ai.mean()),
                        "mean_pga": float(pga.mean())})
    return {"batches": summary, "engine": args.engine, "n": args.n}


def cmd_spectrum(args):
    catalog = load_catalog(args.manifest)
    _require_nonempty(catalog, args.manifest)
    periods = _period_grid(args)
    for rec in catalog:
        spec = compute_sa(rec.accel, rec.dt, periods)
        path = os.path.join(args.out, f"{rec.id}_spectrum.csv")
        with open(path, "w", newline="") as fh:
            fh.write(f"# damping = {spec.damping}\n")
            w = csv.writer(fh)
            w.writerow(["T_s", "Sa_g"])
            w.writerows((f"{t:.6g}", f"{s:.8g}")
                        for t, s in zip(spec.periods, spec.sa_g))
    return {"records": len(catalog), "n_periods": int(periods.size)}


def cmd_fit_fc(args):
    catalog = load_catalog(args.manifest)
    _require_nonempty(catalog, args.manifest)
    lo, hi, step = args.fc_grid
    try:
        config = fc_opt.FcSearchConfig(grid_lo=lo, grid_hi=hi, step=step,
                                       n_mc=args.mc, seed=args.seed,
                                       bracket=True)
    except ValueError as exc:
        raise DataError(f"--fc-grid/--mc: {exc}") from exc

    def one(rec):
        params = entry_params(catalog.entry(rec.id), rec).with_fc(None)
        return rec.id, fc_opt.optimize_fc(rec, params, config, args.engine)

    if args.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(one, catalog.records))
    else:
        results = dict(one(r) for r in catalog.records)

    table = []
    for rec in catalog:
        res = results[rec.id]
        table.append((rec.id, f"{res.fc_star:.4g}"))
        _write_csv(os.path.join(args.out, f"{rec.id}_epsilon.csv"),
                   ["fc_hz", "epsilon"],
                   [(f"{f:.4g}", f"{e:.8g}")
                    for f, e in zip(res.fc_grid, res.epsilon_curve)])
    _write_csv(os.path.join(args.out, "fc_table.csv"), ["id", "fc_star_hz"], table)
    return {"fc_star": {rid: results[rid].fc_star for rid, _ in table},
            "search": {rid: {"evals": results[rid].evals,
                             "fallback": results[rid].fallback,
                             "fc_on_edge": results[rid].fc_on_edge}
                       for rid, _ in table}}


def _stats_outputs(tag, sm, out_dir):
    q05 = catalog_stats.spectral_quantiles(sm, 0.05)
    q50 = catalog_stats.spectral_quantiles(sm, 0.50)
    q95 = catalog_stats.spectral_quantiles(sm, 0.95)
    std = catalog_stats.spectral_std(sm)
    _write_csv(os.path.join(out_dir, f"{tag}_stats.csv"),
               ["T_s", "q05_logsa", "q50_logsa", "q95_logsa", "std_logsa"],
               [(f"{t:.6g}", f"{a:.8g}", f"{b:.8g}", f"{c:.8g}", f"{d:.8g}")
                for t, a, b, c, d in zip(sm.periods, q05, q50, q95, std)])
    rho = catalog_stats.spectral_correlation(sm)
    _write_matrix_csv(os.path.join(out_dir, f"{tag}_correlation.csv"),
                      sm.periods, rho)
    return {"q05": q05, "q50": q50, "q95": q95, "std": std, "rho": rho}


def cmd_stats(args):
    catalog = load_catalog(args.manifest)
    _require_nonempty(catalog, args.manifest)
    periods = _period_grid(args)
    sm = _catalog_log_sa(catalog, periods, args.jobs)
    stats = {"recorded": _stats_outputs("recorded", sm, args.out)}
    sms = {"recorded": sm}

    if args.compare:
        cat2 = load_catalog(args.compare)
        _require_nonempty(cat2, args.compare)
        sm2 = _catalog_log_sa(cat2, periods, args.jobs)
        stats["synthetic"] = _stats_outputs("synthetic", sm2, args.out)
        sms["synthetic"] = sm2

    # quantile/std chart, one panel per statistic
    charts = []
    for key, label in (("q05", "5% quantile"), ("q50", "median"),
                       ("q95", "95% quantile"), ("std", "std")):
        chart = svgplot.LineChart(title=f"log Sa {label}", xlabel="T (s)",
                                  ylabel="log Sa", logx=True)
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
                                  ylabel="correlation", logx=True)
        for tag, st in stats.items():
            chart.add_line(periods, st["rho"][:, j2], label=tag,
                           dashed=tag != "recorded")
        charts.append(chart)
    with open(os.path.join(args.out, "correlation.svg"), "w") as fh:
        fh.write(svgplot.panel_grid(charts))
    return {"catalogs": list(stats), "n_periods": int(periods.size)}


def cmd_sensitivity(args):
    catalog = load_catalog(args.manifest)
    _require_nonempty(catalog, args.manifest)
    periods = _period_grid(args)
    sm = _catalog_log_sa(catalog, periods, args.jobs)

    theta = []
    for rec in catalog:
        p = entry_params(catalog.entry(rec.id), rec)
        if p.fc_hz is None:
            raise DataError(f"entry {rec.id}: sensitivity needs fc_hz in manifest")
        theta.append([p.log_ai, p.d595, p.t_mid, p.omega_mid, p.omega_rate,
                      p.zeta_f, p.fc_hz])
    dm = sensitivity.DesignMatrix(np.asarray(theta))
    bundle = sensitivity.fit_bundle(dm, sm.log_sa, periods)

    r2 = sensitivity.r2_curve(bundle)
    _write_csv(os.path.join(args.out, "r2.csv"), ["T_s", "r2"],
               [(f"{t:.6g}", f"{v:.8g}") for t, v in zip(periods, r2)])

    wc = sensitivity.weighted_coefficients(bundle)
    _write_csv(os.path.join(args.out, "weighted_coefficients.csv"),
               ["T_s"] + list(bundle.labels),
               [[f"{t:.6g}"] + [f"{wc[i, j]:.8g}" for i in range(wc.shape[0])]
                for j, t in enumerate(periods)])

    base = sensitivity.baseline_surfaces(bundle)
    _write_matrix_csv(os.path.join(args.out, "rho_full.csv"), periods, base["rho"])
    var_rows = {"full": base["var"]}
    for mode in ("const_fc", "no_cov"):
        scen = sensitivity.scenario_neglect_fc(bundle, mode)
        _write_matrix_csv(os.path.join(args.out, f"rho_{mode}.csv"),
                          periods, scen["rho"])
        var_rows[mode] = scen["var"]
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

    chart = svgplot.LineChart(title="R^2", xlabel="T (s)", ylabel="R^2", logx=True)
    chart.add_line(periods, r2, label="full")
    with open(os.path.join(args.out, "r2.svg"), "w") as fh:
        fh.write(chart.render())
    return {"r2_range": [float(r2.min()), float(r2.max())]}


def cmd_sample_params(args):
    catalog = load_catalog(args.manifest)
    _require_nonempty(catalog, args.manifest)
    theta = []
    for rec in catalog:
        p = entry_params(catalog.entry(rec.id), rec)
        if p.fc_hz is None:
            raise DataError(f"entry {rec.id}: sample-params needs fc_hz in manifest")
        theta.append([p.log_ai, p.d595, p.t_mid, p.omega_mid, p.omega_rate,
                      p.zeta_f, p.fc_hz])
    theta = np.asarray(theta)

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

def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochgm",
        description="Stochastic ground-motion simulation with optimized "
                    "high-pass corner frequency")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, engine=False, n=False, mc=False, fc_grid=False, periods=True):
        sp.add_argument("--manifest", required=True, help="catalog manifest file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--jobs", type=int, default=1, help="worker pool size")
        if engine:
            sp.add_argument("--engine", choices=("temporal", "spectral"),
                            default="spectral")
        if n:
            sp.add_argument("--n", type=int, default=100,
                            help="number of realizations / samples")
        if mc:
            sp.add_argument("--mc", type=int, default=100,
                            help="Monte Carlo samples per grid point")
        if fc_grid:
            sp.add_argument("--fc-grid", type=_parse_triplet, default=(0.0, 2.0, 0.01),
                            metavar="LO:HI:STEP", help="corner-frequency grid (Hz)")
        if periods:
            sp.add_argument("--periods", type=_parse_triplet, default=None,
                            metavar="LO:HI:COUNT", help="period grid override (s)")

    sp = sub.add_parser("convert", help="re-emit records as AT2 + CSV")
    common(sp, periods=False)
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("simulate", help="simulate realization batches")
    common(sp, engine=True, n=True, periods=False)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("spectrum", help="response spectra of records")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("fit-fc", help="optimize fc per record")
    common(sp, engine=True, mc=True, fc_grid=True, periods=False)
    sp.set_defaults(func=cmd_fit_fc)

    sp = sub.add_parser("stats", help="catalog spectral statistics")
    common(sp)
    sp.add_argument("--compare", default=None,
                    help="second manifest (synthetic catalog) for comparison")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("sensitivity", help="regression sensitivity analysis")
    common(sp)
    sp.set_defaults(func=cmd_sensitivity)

    sp = sub.add_parser("sample-params", help="fit joint model and sample")
    common(sp, n=True, periods=False)
    sp.set_defaults(func=cmd_sample_params)
    return parser


def main(argv=None):
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
    }
    code = 0
    try:
        if getattr(args, "n", 1) < 1:
            raise DataError(f"--n must be at least 1, got {args.n}")
        run_log["result"] = args.func(args)
        run_log["status"] = "ok"
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        print(f"stochgm: error: {exc}", file=sys.stderr)
        run_log.update(status="data_error", error=str(exc))
        code = 2
    except NumericalError as exc:
        log.error("%s", exc)
        print(f"stochgm: numerical failure: {exc}", file=sys.stderr)
        run_log.update(status="numerical_error", error=str(exc))
        code = 3
    run_log["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(os.path.join(args.out, "run_log.json"), "w") as fh:
        json.dump(run_log, fh, indent=2, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
