"""Command-line front end.

Subcommands: convert, simulate, spectrum, fit-fc, stats, sensitivity,
sample-params. CSV files are the authoritative outputs; SVG charts are a
convenience. Every run writes a machine-readable run_log.json into the
output directory, and no output of a run replaces a file it reads. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.

Each subcommand imports the modules it calls, so a process loads only what
its subcommand needs: convert needs numpy alone; spectrum, stats and
sensitivity add sosfilt's second-order-section loop (scipy.signal._sosfilt,
without the scipy.signal package); simulate and fit-fc also brentq's loop
(scipy.optimize._zeros) and three incomplete-gamma ufuncs
(scipy.special._special_ufuncs), each without its package; sample-params
adds the scipy.special package. No subcommand loads scipy.linalg,
scipy.stats, scipy.optimize or scipy.signal.
"""

import argparse
import csv
import json
import logging
import math
import os
import platform
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import scipy

from . import __version__
from .catalog_io import G_ACCEL, GMParams, load_catalog, write_at2
from .errors import DataError, NumericalError


# fixed default seed: reproducibility is the product, not entropy
DEFAULT_SEED = 20240715
# numpy's SeedSequence reads an int seed as 32-bit words and drops a trailing
# zero word, so simulate's entropy (seed, k) at a seed of 2**32 or more
# would be another seed's: (5 + 2**32, 0) draws (5, 1)'s noise
MAX_SEED = 2 ** 32 - 1
CORR_PANEL_T2 = (0.1, 0.5, 1.0, 4.0)
# realizations x padded samples of one record's simulation (--n or --mc):
# 128 MiB per float64 array; either engine peaks at 2.3 (n, m) arrays, the
# high-pass at two (n, m + pad). It also caps sample-params' --n x 7 draws
# and a record's refine factor at the --periods LO x its samples, the size
# of the sub-step product of a refined spectrum. Its square root caps the
# --periods COUNT, the side of the COUNT x COUNT correlation matrices
MAX_SIM_ELEMENTS = 2 ** 24


# ---------------------------------------------------------------------------
# input and output boundary and helpers: a bad manifest entry or numeric flag,
# or an output that would replace an input, is a DataError (exit 2) naming it
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
    if getattr(args, "seed", 0) > MAX_SEED:
        raise DataError(f"--seed must be at most {MAX_SEED}, got {args.seed}")
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
    if hasattr(args, "n") and not hasattr(args, "engine"):  # sample-params
        from .sensitivity import PARAM_LABELS as labels
        if args.n * len(labels) > MAX_SIM_ELEMENTS:
            raise DataError(f"--n {args.n} samples x {len(labels)} parameters "
                            f"exceeds {MAX_SIM_ELEMENTS} elements")
    if hasattr(args, "fc_grid"):
        from . import fc_opt
        try:
            args.fc_search = fc_opt.FcSearchConfig(
                *args.fc_grid, n_mc=args.mc, seed=args.seed)
        except ValueError as exc:
            raise DataError(f"--fc-grid/--mc: {exc}") from exc


def _out(args, name):
    """The path of output `name` in --out; a DataError if it resolves to an input."""
    path = os.path.join(args.out, name)
    if os.path.realpath(path) in args.inputs:
        raise DataError(f"--out {args.out}: {path} is an input")
    return path


def entry_params(entry, record, fc_default=None):
    """Build GMParams for a manifest entry, extracting the simple
    parameters from the record when the manifest omits them. The entry's
    params are keyed by catalog_io.PARAM_KEYS, the GMParams field names."""
    from .catalog_stats import extract_simple_params

    p = dict(entry.params)
    missing = {"log_ai", "d595", "t_mid"} - set(p)
    if missing:
        p.update({k: v for k, v in extract_simple_params(record).items()
                  if k in missing})
    for key in ("omega_mid", "omega_rate", "zeta_f"):
        if key not in p:
            raise DataError(f"manifest must supply {key}")
    p.setdefault("t_total", record.duration)
    p.setdefault("fc_hz", fc_default)
    return GMParams(**p)


def _load(args, manifest=None, fc=False):
    """The non-empty catalog at `manifest` (default --manifest), every entry
    checked against the subcommand's flags before any record is processed:
    --periods caps its refine factor at the shortest period times its
    samples; --engine builds its GMParams (fc_hz 0 when unset), which the
    model must accept at the record's dt, and caps --n or --mc realizations
    of its samples, padded for its fc_hz or the --fc-grid ends; fc requires
    its fc_hz and refuses a parameter that is the same on every entry. The
    caps are MAX_SIM_ELEMENTS. Returns the catalog, with --engine and the
    GMParams by id, with fc and the (n_records, 7) parameter matrix in
    sensitivity.PARAM_LABELS order (entries and records pair by position:
    load_catalog builds both in manifest order)."""
    manifest = manifest or args.manifest
    catalog = load_catalog(manifest)
    args.inputs.update(map(os.path.realpath, catalog.paths))
    _out(args, "run_log.json")  # no record the run reads may be its run log
    if len(catalog) == 0:
        raise DataError(f"catalog from {manifest} is empty")
    if hasattr(args, "periods"):
        from .resp_spectrum import MIN_SAMPLES_PER_CYCLE

        lo = float(args.periods.min())
        for rec in catalog:
            # refine_factor(dt, lo) is ceil(reads), kept a float: a subnormal
            # LO gives inf, not an OverflowError. A plain period (reads <= 1)
            # has no sub-step product
            reads = MIN_SAMPLES_PER_CYCLE * rec.dt / lo
            if reads > max(1, MAX_SIM_ELEMENTS // rec.npts):
                raise DataError(f"entry {rec.id}: --periods LO {lo:g} s: refine "
                                f"factor {np.ceil(reads):g} x {rec.npts} samples "
                                f"exceeds {MAX_SIM_ELEMENTS} elements")
    engine = hasattr(args, "engine")
    if not (engine or fc):
        return catalog
    if engine:
        from .gm_model import _check_dt, _modulator, highpass_pad, n_samples

        flag, n = ("--mc", args.mc) if hasattr(args, "mc") else ("--n", args.n)
        corners = None  # the entry's fc_hz; the --fc-grid ends cover the grid
        if hasattr(args, "fc_search"):
            grid = args.fc_search.grid
            corners = grid[grid > 0][[0, -1]].tolist() if grid[-1] > 0 else [0.0]
    params = {}
    for entry, rec in zip(catalog.entries, catalog.records):
        try:
            p = params[entry.id] = entry_params(entry, rec, 0.0 if engine else None)
            if fc and p.fc_hz is None:
                raise DataError(f"{args.command} needs fc_hz in manifest")
            if engine:
                _check_dt(p, rec.dt)
                m = n_samples(p, rec.dt) + max(
                    highpass_pad(f, rec.dt) for f in corners or (p.fc_hz,))
                if n * m > MAX_SIM_ELEMENTS:
                    raise DataError(f"{flag} {n} realizations x {m} samples "
                                    f"exceeds {MAX_SIM_ELEMENTS} elements")
                _modulator(p.log_ai, p.d595, p.t_mid, p.t_total)
        except (ValueError, DataError, NumericalError) as exc:
            raise DataError(f"entry {entry.id}: {exc}") from exc
    if engine:
        return catalog, params
    from .sensitivity import PARAM_LABELS

    theta = np.array([[getattr(p, k) for k in PARAM_LABELS] for p in params.values()])
    for label, column in zip(PARAM_LABELS, theta.T):
        if len(column) > 1 and np.ptp(column) == 0:
            raise DataError(f"--manifest {manifest}: {label} is {column[0]:g} on "
                            "every entry")
    return catalog, theta


def _per_record(fn, records, jobs=1):
    """[fn(rec) for rec in records], on `jobs` threads when jobs > 1. A
    DataError or NumericalError from one record is re-raised naming it."""
    def one(rec):
        try:
            return fn(rec)
        except (DataError, NumericalError) as exc:
            raise type(exc)(f"entry {rec.id}: {exc}") from exc

    if jobs > 1:
        import concurrent.futures

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


def _catalog_log_sa(catalog, periods, jobs=1):
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
    catalog = _load(args)
    # every path is named before the first write, so a refused one writes nothing
    paths = _per_record(lambda rec: [_out(args, f"{rec.id}.{ext}") for ext in ("AT2", "csv")],
                        catalog.records)
    for rec, (at2_path, csv_path) in zip(catalog, paths):
        with open(at2_path, "w") as fh:
            fh.write(write_at2(rec))
        # the csv module's text, formatted by one % over the whole series
        t_a = np.column_stack([np.arange(rec.npts) * rec.dt, rec.accel / G_ACCEL])
        with open(csv_path, "w", newline="") as fh:
            fh.write("t_s,accel_g\r\n"
                     + ("%.6g,%.7e\r\n" * rec.npts) % tuple(t_a.ravel().tolist()))
    return {"records": len(catalog)}


def cmd_simulate(args):
    from .gm_model import apply_highpass, simulate

    catalog, params = _load(args)
    # record k draws its noise from the entropy (seed, k), so no two share it
    index = {rec_id: k for k, rec_id in enumerate(params)}

    def one(rec):
        p = params[rec.id]
        batch = simulate(p, rec.dt, args.n, (args.seed, index[rec.id]), args.engine)
        if p.fc_hz:
            batch = apply_highpass(batch, p.fc_hz)
        batch.save_npz(_out(args, f"{rec.id}_batch.npz"))
        a = batch.realizations
        ai = np.pi / (2 * G_ACCEL) * np.trapezoid(a ** 2, dx=batch.dt, axis=1)
        pga = np.abs(a).max(axis=1)
        _write_csv(_out(args, f"{rec.id}_summary.csv"),
                   ["realization", "arias_m_per_s", "pga_ms2"],
                   [(i, f"{ai[i]:.6g}", f"{pga[i]:.6g}") for i in range(len(ai))])
        return {"id": rec.id, "mean_ai": float(ai.mean()),
                "mean_pga": float(pga.mean()),
                "sigma_floor_hits": batch.sigma_floor_hits,
                "omega_nodes": batch.omega_nodes}

    return {"batches": _per_record(one, catalog.records), "engine": args.engine,
            "n": args.n}


def cmd_spectrum(args):
    from .resp_spectrum import compute_sa

    catalog = _load(args)
    spectra = []
    for rec in catalog:
        spec = compute_sa(rec.accel, rec.dt, args.periods)
        spectra.append(spec)
        with open(_out(args, f"{rec.id}_spectrum.csv"), "w", newline="") as fh:
            fh.write(f"# damping = {spec.damping}\n")
            w = csv.writer(fh)
            w.writerow(["T_s", "Sa_g"])
            w.writerows((f"{t:.6g}", f"{s:.8g}")
                        for t, s in zip(spec.periods, spec.sa_g))
    return {"records": len(catalog), "n_periods": int(args.periods.size),
            "health": _spectra_health(catalog.records, spectra)}


def cmd_fit_fc(args):
    from . import fc_opt

    catalog, params = _load(args)

    def one(rec):
        return fc_opt.optimize_fc(rec, params[rec.id].with_fc(None),
                                  args.fc_search, args.engine)

    results = dict(zip(params, _per_record(one, catalog.records)))
    for rid, res in results.items():
        _write_csv(_out(args, f"{rid}_epsilon.csv"), ["fc_hz", "epsilon"],
                   [(f"{f:.4g}", f"{e:.8g}")
                    for f, e in zip(res.fc_grid, res.epsilon_curve)])
    _write_csv(_out(args, "fc_table.csv"), ["id", "fc_star_hz"],
               [(rid, f"{res.fc_star:.4g}") for rid, res in results.items()])
    return {"fc_star": {rid: res.fc_star for rid, res in results.items()},
            "search": {rid: {"evals": res.evals, "fallback": res.fallback,
                             "fc_on_edge": res.fc_on_edge}
                       for rid, res in results.items()},
            "omega_nodes": {rid: res.omega_nodes for rid, res in results.items()}}


def _stats_outputs(args, tag, spectra, periods):
    from . import catalog_stats

    q05 = catalog_stats.spectral_quantiles(spectra, 0.05)
    q50 = catalog_stats.spectral_quantiles(spectra, 0.50)
    q95 = catalog_stats.spectral_quantiles(spectra, 0.95)
    std = catalog_stats.spectral_std(spectra)
    _write_csv(_out(args, f"{tag}_stats.csv"),
               ["T_s", "q05_logsa", "q50_logsa", "q95_logsa", "std_logsa"],
               [(f"{t:.6g}", f"{a:.8g}", f"{b:.8g}", f"{c:.8g}", f"{d:.8g}")
                for t, a, b, c, d in zip(periods, q05, q50, q95, std)])
    rho = catalog_stats.spectral_correlation(spectra)
    _write_matrix_csv(_out(args, f"{tag}_correlation.csv"), periods, rho)
    return {"q05": q05, "q50": q50, "q95": q95, "std": std, "rho": rho}


def cmd_stats(args):
    from . import svgplot

    periods = args.periods
    # both catalogs pass the input checks before any spectrum is computed
    catalogs = {tag: _load(args, manifest) for tag, manifest in
                (("recorded", args.manifest), ("synthetic", args.compare)) if manifest}
    stats, records, spectra = {}, [], []
    for tag, catalog in catalogs.items():
        log_sa, specs = _catalog_log_sa(catalog, periods, args.jobs)
        stats[tag] = _stats_outputs(args, tag, log_sa, periods)
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
    with open(_out(args, "stats.svg"), "w") as fh:
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
    with open(_out(args, "correlation.svg"), "w") as fh:
        fh.write(svgplot.panel_grid(charts))
    return {"catalogs": list(stats), "n_periods": int(periods.size),
            "health": _spectra_health(records, spectra)}


def cmd_sensitivity(args):
    from . import sensitivity, svgplot

    catalog, theta = _load(args, fc=True)
    try:
        dm = sensitivity.DesignMatrix(theta)
    except (ValueError, NumericalError) as exc:
        raise DataError(f"--manifest {args.manifest}: {exc}") from exc
    periods = args.periods
    log_sa, spectra = _catalog_log_sa(catalog, periods)
    bundle = sensitivity.fit_bundle(dm, log_sa, periods)

    r2 = sensitivity.r2_curve(bundle)
    _write_csv(_out(args, "r2.csv"), ["T_s", "r2"],
               [(f"{t:.6g}", f"{v:.8g}") for t, v in zip(periods, r2)])

    wc = sensitivity.weighted_coefficients(bundle)
    _write_csv(_out(args, "weighted_coefficients.csv"),
               ["T_s"] + list(sensitivity.PARAM_LABELS),
               [[f"{t:.6g}"] + [f"{wc[i, j]:.8g}" for i in range(wc.shape[0])]
                for j, t in enumerate(periods)])

    var_rows, negative = {}, {}
    for mode in ("full", "const_fc", "no_cov"):
        surf = (sensitivity.baseline_surfaces(bundle) if mode == "full"
                else sensitivity.scenario_neglect_fc(bundle, mode))
        _write_matrix_csv(_out(args, f"rho_{mode}.csv"), periods, surf["rho"])
        var_rows[mode] = surf["var"]
        if mode != "full":
            negative[mode] = int(surf["negative_variance"].sum())
    _write_csv(_out(args, "variance_scenarios.csv"),
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
    _write_csv(_out(args, "covariance_percentages.csv"),
               ["T1_s", "T2_s", "pct_term1", "pct_term2", "pct_term3", "pct_term4"],
               rows)

    chart = svgplot.LineChart(title="R^2", xlabel="T (s)", ylabel="R^2")
    chart.add_line(periods, r2, label="full")
    with open(_out(args, "r2.svg"), "w") as fh:
        fh.write(chart.render())
    # the paper's fc share: the long-period variance that fc's spread explains
    share = 1 - var_rows["const_fc"][periods >= 1] / var_rows["full"][periods >= 1]
    return {"r2_range": [float(r2.min()), float(r2.max())],
            "fc_share": float(share.mean()) if share.size else None,
            "fc_share_periods": share.size,
            "health": dict(_spectra_health(catalog.records, spectra),
                           negative_variance_periods=negative)}


def cmd_sample_params(args):
    from . import param_dist, sensitivity

    _, theta = _load(args, fc=True)

    marginals = tuple(
        param_dist.fit_marginal(theta[:, j], fam)
        for j, fam in enumerate(param_dist.DEFAULT_FAMILIES))
    corr = param_dist.fit_copula(theta, marginals)
    model = param_dist.JointParamModel(marginals=marginals, correlation=corr,
                                       labels=sensitivity.PARAM_LABELS)
    param_dist.save_joint_model(model, _out(args, "joint_model.txt"))

    draws = param_dist.sample_params(model, args.n, args.seed)
    _write_csv(_out(args, "sampled_params.csv"),
               list(sensitivity.PARAM_LABELS),
               [[f"{v:.8g}" for v in row] for row in draws])
    return {"n_sampled": int(draws.shape[0])}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# flag -> its add_argument keywords (fc_grid is --fc-grid)
FLAGS = {
    "seed": dict(type=int, default=DEFAULT_SEED),
    "jobs": dict(type=int, default=1, help="worker pool size"),
    "engine": dict(choices=("temporal", "spectral"), default="spectral"),
    "n": dict(type=int, default=100, help="number of realizations / samples"),
    "mc": dict(type=int, default=100, help="Monte Carlo samples per grid point"),
    "fc_grid": dict(type=_parse_triplet, default=(0.0, 2.0, 0.01), metavar="LO:HI:STEP",
                    help="corner-frequency grid (Hz)"),
    "periods": dict(type=_parse_triplet, default=(0.05, 10.0, 100.0),
                    metavar="LO:HI:COUNT", help="log-spaced period grid (s)"),
    "compare": dict(help="second manifest (synthetic catalog) for comparison"),
}
# subcommand -> (handler, help, FLAGS besides --manifest/--out)
SUBCOMMANDS = {
    "convert": (cmd_convert, "re-emit records as AT2 + CSV", ()),
    "simulate": (cmd_simulate, "simulate realization batches", ("seed", "engine", "n")),
    "spectrum": (cmd_spectrum, "response spectra of records", ("periods",)),
    "fit-fc": (cmd_fit_fc, "optimize fc per record", ("seed", "engine", "mc", "fc_grid")),
    "stats": (cmd_stats, "catalog spectral statistics", ("jobs", "periods", "compare")),
    "sensitivity": (cmd_sensitivity, "regression sensitivity analysis", ("periods",)),
    "sample-params": (cmd_sample_params, "fit joint model and sample", ("seed", "n")),
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
        for flag in flags:
            sp.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
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

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # no directory to hold a run log
        print(f"stochgm: error: --out {args.out}: {exc}", file=sys.stderr)
        return 2
    # the files the run reads, which no output may replace; _load adds the records
    args.inputs = {os.path.realpath(p) for p in (args.manifest, vars(args).get("compare")) if p}
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
        _out(args, "run_log.json")  # the run log may not replace a manifest
        _check_args(args)
        run_log["result"] = args.func(args)
        run_log["status"] = "ok"
    except (DataError, OSError, NumericalError) as exc:
        code, status, what = ((3, "numerical_error", "numerical failure")
                              if isinstance(exc, NumericalError)
                              else (2, "data_error", "error"))
        print(f"stochgm: {what}: {exc}", file=sys.stderr)
        run_log.update(status=status, error=str(exc))
    run_log["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    run_log["elapsed_s"] = time.monotonic() - t0
    try:  # VmHWM restarts at exec; on Linux ru_maxrss starts at the launcher's peak
        with open("/proc/self/status") as fh:
            hwm = next(line for line in fh if line.startswith("VmHWM:"))
        run_log["peak_rss_mb"] = int(hwm.split()[1]) / 1024
    except (OSError, StopIteration):
        if resource:
            run_log["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        with open(_out(args, "run_log.json"), "w") as fh:
            json.dump(run_log, fh, indent=2, default=str)
    except DataError:  # the run log is an input, which the run has reported
        return 2
    except OSError as exc:  # for example a directory named run_log.json
        print(f"stochgm: error: --out {args.out}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
