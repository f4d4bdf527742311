"""Benchmark of the stochgm command line, run the way users run it.

    python3 perfbench/run.py --workload fit_fc|catalog|simulate --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/). Each workload generates its catalog from --seed with the package's
own simulator (timed as setup_s), then runs its CLI invocations one after
another, one process each, in rounds until --seconds have passed (at least
one round). Every invocation's outputs are checked; an invocation counts
as failed if it exits non-zero or a check fails.

--trace 0 prints the end-to-end metrics: wall_s (a round's time, summed
from each invocation's median across rounds), peak_rss_mb (largest child ru_maxrss) and setup_s (median of at least
SETUP_REPEATS set-ups). --trace 1 runs one plain round and one traced
round, the catalog workload's --jobs probe and an import probe, and prints
the per-layer metrics (README.md lists them). The last stdout line is the
JSON result; the line before it records the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3    # at least this many set-ups per run,
SETUP_MIN_S = 3.0    # and more, up to SETUP_MAX_REPEATS, until this long,
SETUP_MAX_REPEATS = 30  # so a set-up of 0.1 s is not one noisy sample
SIM_N = 200
SAMPLE_N = 1000
SUBCOMMANDS = ("convert", "simulate", "spectrum", "fit-fc", "stats",
               "sensitivity", "sample-params")
IMPORT_PROBES = 3
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# span name -> the measures reported for it with --trace 1
SPAN_METRICS = {
    "cli._write_csv": ("self_s", "rows"),
    "catalog_io.parse_at2": ("calls", "self_s", "samples"),
    "catalog_io.load_catalog": ("self_s",),
    "catalog_io.write_at2": ("self_s",),
    "gm_model._noise_matrix": ("calls", "self_s", "draws"),
    "gm_model.solve_modulator": ("calls", "self_s"),
    "gm_model.simulate_temporal": ("calls", "self_s", "matrix_bytes"),
    "gm_model.simulate_spectral": ("calls", "self_s", "matrix_bytes"),
    "gm_model._normalize_and_modulate": ("self_s",),
    "gm_model.highpass": ("calls", "self_s", "samples"),
    "gm_model.SimBatch.save_npz": ("self_s", "bytes"),
    "resp_spectrum.peak_displacement.refined": ("calls", "self_s", "steps"),
    "resp_spectrum.peak_displacement.plain": ("calls", "self_s", "steps"),
    "resp_spectrum.compute_sa": ("calls", "self_s"),
    "resp_spectrum.batch_sa_matrix": ("calls", "self_s"),
    "fc_opt.optimize_fc": ("calls", "self_s"),
    "fc_opt.epsilon": ("calls",),
    "catalog_stats.spectral_quantiles": ("self_s",),
    "catalog_stats.spectral_std": ("self_s",),
    "catalog_stats.spectral_correlation": ("self_s",),
    "sensitivity.fit_bundle": ("self_s",),
    "sensitivity.ols_fit": ("calls",),
    "sensitivity.baseline_surfaces": ("self_s",),
    "sensitivity.scenario_neglect_fc": ("self_s",),
    "sensitivity.covariance_percentages": ("calls", "self_s"),
    "param_dist.fit_marginal": ("self_s",),
    "param_dist.fit_copula": ("self_s",),
    "param_dist.sample_params": ("self_s",),
    "svgplot.panel_grid": ("self_s",),
    "svgplot.LineChart.render": ("self_s",),
}
MEASURE_UNITS = {"self_s": "s", "calls": "count", "rows": "count",
                 "samples": "count", "draws": "count", "steps": "count",
                 "matrix_bytes": "bytes_computed", "bytes": "bytes"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.import_s": "s"}
    units.update({f"cli.{sub}.wall_s": "s" for sub in SUBCOMMANDS})
    units["cli.jobs2_speedup"] = "ratio"
    for name, measures in SPAN_METRICS.items():
        units.update({f"{name}.{m}": MEASURE_UNITS[m] for m in measures})
    units["fc_opt.evals_per_fit"] = "count"
    units["fc_opt.fc_abs_err_max_hz"] = "Hz"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env():
    """Environment of every child: the checkout's sources first, and an
    OpenBLAS thread count no larger than the CPUs this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = int(env.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        threads = nproc
    env["OPENBLAS_NUM_THREADS"] = str(max(1, min(threads, nproc)))
    return env


class Launcher:
    """Client of launcher.py, which spawns the timed commands (see there
    why this process does not spawn them itself)."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, log):
        self.proc.stdin.write(json.dumps({"argv": argv, "log": log}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


# ---------------------------------------------------------------------------
# workloads: each round is a list of ops (subcommand, arguments, check)
# ---------------------------------------------------------------------------

def fit_fc_ops(info, seed, checks):
    def check(out, state):
        state["fc_abs_err_max_hz"] = checks.fit_fc(out, info["fc_true"])
    return [("fit-fc", ["--manifest", info["manifest"], "--seed", str(seed)],
             check)]


def catalog_ops(info, seed, checks):
    m = info["manifest"]

    def spectrum(out, state):
        if "reference" not in state:  # once per run, outside the timings
            state["reference"] = checks.spectrum_reference(
                {rid: os.path.join(os.path.dirname(m), rid + ".AT2")
                 for rid in info["reference_ids"]})
        checks.spectrum(out, info["ids"], state["reference"])

    return [
        ("convert", ["--manifest", m],
         lambda out, state: checks.convert(out, info["ids"])),
        ("spectrum", ["--manifest", m], spectrum),
        ("stats", ["--manifest", m, "--compare", info["compare"]],
         lambda out, state: checks.stats(out)),
        ("sensitivity", ["--manifest", m],
         lambda out, state: checks.sensitivity(out)),
        ("sample-params", ["--manifest", m, "--n", str(SAMPLE_N),
                           "--seed", str(seed)],
         lambda out, state: checks.sample_params(out, SAMPLE_N)),
    ]


def simulate_ops(info, seed, checks):
    def temporal(out, state):
        state["ai_temporal"] = checks.simulate(out, info["m"], SIM_N)

    def spectral(out, state):
        ai = checks.simulate(out, info["m"], SIM_N)
        checks.engines_agree(state.pop("ai_temporal"), ai)

    args = ["--manifest", info["manifest"], "--n", str(SIM_N),
            "--seed", str(seed), "--engine"]
    return [("simulate", args + ["temporal"], temporal),
            ("simulate", args + ["spectral"], spectral)]


WORKLOADS = {"fit_fc": fit_fc_ops, "catalog": catalog_ops,
             "simulate": simulate_ops}
REFERENCE_IDS = ("c00r0", "c02r0")  # dt 0.005 s and 0.02 s records


def cli_argv(label, args, out, spans_path=None):
    """Command line of one CLI invocation; traced when spans_path is given
    (the spans file's name is the trace id)."""
    if spans_path is None:
        argv = [sys.executable, "-m", "stochgm.cli"]
    else:
        argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                spans_path, os.path.basename(spans_path)]
    return argv + [label] + args + ["--out", out]


class Bench:
    """Runs ops through the launcher and counts attempts and failures."""

    def __init__(self, launcher, work, checks):
        self.launcher = launcher
        self.work = work
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.state = {}

    def invoke(self, label, args, out, spans_path=None):
        """One CLI process, into an emptied output directory (so no check
        reads a file left by an earlier round); returns the launcher's
        reply."""
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        return self.launcher.run(cli_argv(label, args, out, spans_path),
                                 os.path.join(out, "cli.log"))

    def op(self, label, args, check, out, spans_path=None):
        """Invocation plus its checks; returns (wall_s, maxrss_kb)."""
        self.attempted += 1
        reply = self.invoke(label, args, out, spans_path)
        try:
            if reply["code"] != 0:
                with open(os.path.join(out, "cli.log")) as fh:
                    tail = fh.read()[-2000:]
                raise RuntimeError(f"exit code {reply['code']}\n{tail}")
            self.checks.run_log_ok(out)
            check(out, self.state)
        except Exception:  # boundary: count and report, keep measuring
            self.failed += 1
            print(f"perfbench: {label} failed in {out}:\n{traceback.format_exc()}",
                  file=sys.stderr)
        return reply["wall_s"], reply["maxrss_kb"]

    def round(self, ops, phase, spans_dir=None):
        """All ops once, outputs under <work>/<phase>; returns per-op
        (label, wall_s, maxrss_kb)."""
        results = []
        for i, (label, args, check) in enumerate(ops):
            out = os.path.join(self.work, phase, f"{i}-{label}")
            spans_path = None if spans_dir is None else os.path.join(
                spans_dir, f"{phase}-{i}-{label}.json")
            wall, rss = self.op(label, args, check, out, spans_path)
            results.append((label, wall, rss))
        return results

    def compare(self, dir_a, dir_b, only=None):
        """Counted as one op: outputs of two runs agree."""
        self.attempted += 1
        try:
            self.checks.same_outputs(dir_a, dir_b, only)
        except Exception:
            self.failed += 1
            print(f"perfbench: outputs differ:\n{traceback.format_exc()}",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def setup(workload, seed, work, repeats, min_s=0.0):
    """Generate the workload's inputs at least `repeats` times, and again
    until min_s seconds have been spent (at most SETUP_MAX_REPEATS times);
    returns (info of the last set-up, median seconds)."""
    import inputs
    times = []
    while len(times) < repeats or (sum(times) < min_s
                                   and len(times) < SETUP_MAX_REPEATS):
        root = os.path.join(work, "inputs")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        start = time.perf_counter()
        info = inputs.CATALOGS[workload](root, seed)
        times.append(time.perf_counter() - start)
    if workload == "catalog":
        info["reference_ids"] = REFERENCE_IDS
    return info, statistics.median(times)


def end_to_end(bench, ops, seconds, setup_s):
    """wall_s is the sum over ops of each op's median wall time across
    rounds, so one slow invocation moves it less than a round total would."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(bench.round(ops, "timed"))
    walls = [[wall for _, wall, _ in r] for r in rounds]
    print(f"perfbench: {len(rounds)} rounds, op walls {walls} s", file=sys.stderr)
    values = {"wall_s": sum(statistics.median(col) for col in zip(*walls)),
              "peak_rss_mb": max(rss for r in rounds for _, _, rss in r) / 1024.0,
              "setup_s": setup_s}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def import_probe(env):
    """Median seconds of `import stochgm.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import stochgm.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout)
             for _ in range(IMPORT_PROBES)]
    return statistics.median(times)


def per_layer(bench, ops, workload, info, env):
    plain = bench.round(ops, "plain")
    spans_dir = os.path.join(bench.work, "spans")
    os.makedirs(spans_dir)
    traced = bench.round(ops, "traced", spans_dir)
    for i, (label, _, _) in enumerate(ops):
        bench.compare(os.path.join(bench.work, "plain", f"{i}-{label}"),
                      os.path.join(bench.work, "traced", f"{i}-{label}"))

    records = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name)) as fh:
            records += json.load(fh)
    layers = spans.summarize(records)

    values = dict.fromkeys(per_layer_units(), 0.0)
    values["cli.import_s"] = import_probe(env)
    for label, wall, _ in plain:
        values[f"cli.{label}.wall_s"] += wall
    for name, measures in SPAN_METRICS.items():
        for m in measures:
            values[f"{name}.{m}"] = layers.get(name, {}).get(m, 0)
    fits = values["fc_opt.optimize_fc.calls"]
    if fits:
        values["fc_opt.evals_per_fit"] = values["fc_opt.epsilon.calls"] / fits
    values["fc_opt.fc_abs_err_max_hz"] = bench.state.get("fc_abs_err_max_hz", 0.0)
    plain_wall = sum(w for _, w, _ in plain)
    values["trace.overhead_ratio"] = sum(w for _, w, _ in traced) / plain_wall - 1

    if workload == "catalog":
        values["cli.jobs2_speedup"] = jobs_probe(bench, info)
    units = per_layer_units()
    return {k: (v, units[k]) for k, v in values.items()}


def jobs_probe(bench, info):
    """stats with --jobs 1 and --jobs 2: identical CSVs; returns the
    speed-up of 2 jobs over 1."""
    args = ["--manifest", info["manifest"], "--compare", info["compare"]]
    walls = {}
    for jobs in ("1", "2"):
        out = os.path.join(bench.work, f"jobs{jobs}")
        walls[jobs], _ = bench.op("stats", args + ["--jobs", jobs],
                                  lambda o, s: bench.checks.stats(o), out)
    csvs = [n for n in os.listdir(os.path.join(bench.work, "jobs1"))
            if n.endswith(".csv")]
    bench.compare(os.path.join(bench.work, "jobs1"),
                  os.path.join(bench.work, "jobs2"), only=csvs)
    return walls["1"] / walls["2"]


def environment(env, args):
    import numpy
    import scipy
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "openblas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "src_lines": src_lines, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stochgm", "cli.py")):
        print(f"perfbench: no stochgm sources in {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    # set before numpy is imported, so set-up uses the same thread count
    os.environ["OPENBLAS_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"]
    sys.path.insert(0, SRC)
    import checks
    launcher = Launcher(env)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            info, setup_s = setup(args.workload, args.seed, work, 1)
        else:
            info, setup_s = setup(args.workload, args.seed, work,
                                  SETUP_REPEATS, SETUP_MIN_S)
        bench = Bench(launcher, work, checks)
        ops = WORKLOADS[args.workload](info, args.seed, checks)
        if args.trace:
            metrics = per_layer(bench, ops, args.workload, info, env)
        else:
            metrics = end_to_end(bench, ops, args.seconds, setup_s)
        print(json.dumps({"env": environment(env, args)}))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
