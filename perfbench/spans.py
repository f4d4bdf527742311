"""In-memory span recorder for one CLI process, and the layer table.

install() wraps each layer's entry function in every stochgm module that
bound it by name (``from .gm_model import highpass`` makes a second binding
that patching gm_model alone would miss) and, for methods, on the class.
Each call records one span: trace id, span id, parent id, name, start,
end and counts. Spans stay in a list until the process writes them out.
"""

import functools
import importlib
import inspect
import itertools
import math
import os
import sys
import threading
import time


class Tracer:
    """Spans of one CLI invocation; every span shares trace_id."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = None  # first span opened; parent of worker-thread spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, measure=None):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span_id = next(self._ids)
        if self.root is None:
            self.root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = {}
        if measure is not None:
            name, counts = measure(name, fn, args, kwargs, result)
        self.spans.append({"trace": self.trace_id, "id": span_id,
                           "parent": parent, "name": name, "start": start,
                           "end": end, "counts": counts})
        return result


@functools.cache
def _signature(fn):
    return inspect.signature(fn)


def _arguments(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# --- per-layer counters: (name, fn, args, kwargs, result) -> (name, counts)

def _rows(name, fn, args, kwargs, result):
    rows = _arguments(fn, args, kwargs)["rows"]
    return name, {"rows": len(rows)}


def _samples_out(name, fn, args, kwargs, result):
    return name, {"samples": int(result.npts)}


def _samples_in(name, fn, args, kwargs, result):
    return name, {"samples": int(result.size)}


def _draws(name, fn, args, kwargs, result):
    return name, {"draws": int(result.size)}


def _temporal_bytes(name, fn, args, kwargs, result):
    # lag and h: two dense m x m float64 arrays (computed, not measured)
    m = result.realizations.shape[1]
    return name, {"matrix_bytes": 2 * m * m * 8}


def _spectral_bytes(name, fn, args, kwargs, result):
    # mag, phase, cmat, smat: four m x K float64 arrays (computed)
    a = _arguments(fn, args, kwargs)
    m = result.realizations.shape[1]
    big_k = int(math.ceil(a["params"].t_total / (2 * a["dt"])))
    return name, {"matrix_bytes": 4 * m * big_k * 8}


def _npz_bytes(name, fn, args, kwargs, result):
    path = os.fspath(_arguments(fn, args, kwargs)["path"])
    if not path.endswith(".npz"):
        path += ".npz"
    return name, {"bytes": os.path.getsize(path)}


def _peak_displacement(name, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    per_cycle = fn.__globals__["MIN_SAMPLES_PER_CYCLE"]  # resp_spectrum's
    refine = max(1, math.ceil(per_cycle * a["dt"] / a["period"]))
    accel = a["accel"]
    rows = 1 if getattr(accel, "ndim", 1) == 1 else accel.shape[0]
    kind = "refined" if refine > 1 else "plain"
    return f"{name}.{kind}", {"steps": rows * accel.shape[-1] * refine}


# (module, attribute path, span name, counter)
LAYERS = (
    ("stochgm.cli", "_write_csv", "cli._write_csv", _rows),
    ("stochgm.catalog_io", "parse_at2", "catalog_io.parse_at2", _samples_out),
    ("stochgm.catalog_io", "load_catalog", "catalog_io.load_catalog", None),
    ("stochgm.catalog_io", "write_at2", "catalog_io.write_at2", None),
    ("stochgm.gm_model", "_noise_matrix", "gm_model._noise_matrix", _draws),
    ("stochgm.gm_model", "solve_modulator", "gm_model.solve_modulator", None),
    ("stochgm.gm_model", "simulate_temporal", "gm_model.simulate_temporal",
     _temporal_bytes),
    ("stochgm.gm_model", "simulate_spectral", "gm_model.simulate_spectral",
     _spectral_bytes),
    ("stochgm.gm_model", "_normalize_and_modulate",
     "gm_model._normalize_and_modulate", None),
    ("stochgm.gm_model", "highpass", "gm_model.highpass", _samples_in),
    ("stochgm.gm_model", "SimBatch.save_npz", "gm_model.SimBatch.save_npz",
     _npz_bytes),
    ("stochgm.resp_spectrum", "peak_displacement",
     "resp_spectrum.peak_displacement", _peak_displacement),
    ("stochgm.resp_spectrum", "compute_sa", "resp_spectrum.compute_sa", None),
    ("stochgm.resp_spectrum", "batch_sa_matrix", "resp_spectrum.batch_sa_matrix",
     None),
    ("stochgm.fc_opt", "optimize_fc", "fc_opt.optimize_fc", None),
    ("stochgm.fc_opt", "epsilon", "fc_opt.epsilon", None),
    ("stochgm.catalog_stats", "spectral_quantiles",
     "catalog_stats.spectral_quantiles", None),
    ("stochgm.catalog_stats", "spectral_std", "catalog_stats.spectral_std", None),
    ("stochgm.catalog_stats", "spectral_correlation",
     "catalog_stats.spectral_correlation", None),
    ("stochgm.sensitivity", "fit_bundle", "sensitivity.fit_bundle", None),
    ("stochgm.sensitivity", "ols_fit", "sensitivity.ols_fit", None),
    ("stochgm.sensitivity", "baseline_surfaces", "sensitivity.baseline_surfaces",
     None),
    ("stochgm.sensitivity", "scenario_neglect_fc",
     "sensitivity.scenario_neglect_fc", None),
    ("stochgm.sensitivity", "covariance_percentages",
     "sensitivity.covariance_percentages", None),
    ("stochgm.param_dist", "fit_marginal", "param_dist.fit_marginal", None),
    ("stochgm.param_dist", "fit_copula", "param_dist.fit_copula", None),
    ("stochgm.param_dist", "sample_params", "param_dist.sample_params", None),
    ("stochgm.svgplot", "panel_grid", "svgplot.panel_grid", None),
    ("stochgm.svgplot", "LineChart.render", "svgplot.LineChart.render", None),
)


def _wrap(tracer, fn, name, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, measure)
    return wrapper


def install(tracer):
    """Wrap every layer entry point, in every module that bound it."""
    for mod_name, _, _, _ in LAYERS:
        importlib.import_module(mod_name)
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "stochgm" or k.startswith("stochgm."))]
    for mod_name, attr, name, measure in LAYERS:
        owner = sys.modules[mod_name]
        if "." in attr:  # a method: patch the class, instances follow
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(tracer, getattr(cls, meth), name, measure))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, name, measure)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


# --- analysis ------------------------------------------------------------

def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(spans):
    """Aggregate spans by name: calls, self_s and summed counts.

    Self time is a span's duration minus the part of it that its child
    spans cover (children on worker threads may overlap; their union is
    taken).
    """
    children = {}
    for sp in spans:
        children.setdefault((sp["trace"], sp["parent"]), []).append(
            (sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        kids = children.get((sp["trace"], sp["id"]), [])
        self_s = sp["end"] - sp["start"] - _covered(sp["start"], sp["end"], kids)
        agg = out.setdefault(sp["name"], {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += self_s
        for k, v in sp["counts"].items():
            agg[k] = agg.get(k, 0) + v
    return out
