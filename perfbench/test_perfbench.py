"""Tests of the benchmark itself.

The traced call counts must equal the arithmetic of the inputs, which
fails if a layer is wrapped in its defining module but not in a module
that bound the function by name (fc_opt and cli do). Tracing must not
change any output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

N_MAIN, N_COMPARE, N_FIT, N_SIM = 10, 4, 2, 3
N_PERIODS = 12
PERIODS = f"0.05:10:{N_PERIODS}"
FC_GRID, GRID_SIZE = "0.1:0.3:0.1", 3
N_MATCH = 30  # fc_opt.FcSearchConfig.n_match_points
M = 1001


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("perfbench"))
    rng = np.random.default_rng(7)
    main, compare = [], []
    for k in range(N_MAIN):
        p = inputs.draw_params(rng, (M - 1) * 0.02)
        fc = float(rng.uniform(0.1, 0.7))
        a, b = inputs.records([f"m{k}", f"s{k}"], p, 0.02, fc, k, M)
        main.append((a, p, fc))
        if k < N_COMPARE:
            compare.append((b, p, fc))
    return {"main": inputs.write_catalog(root, "main", main),
            "compare": inputs.write_catalog(root, "compare", compare),
            "fit": inputs.write_catalog(root, "fit", main[:N_FIT]),
            "sim": inputs.write_catalog(root, "sim", main[:N_SIM])}


def traced_and_plain(tmp_path, label, args):
    """Run one invocation untraced and traced; check the outputs agree and
    return the traced per-layer summary."""
    env = run.child_env()
    plain, traced = str(tmp_path / "plain"), str(tmp_path / "traced")
    spans_path = str(tmp_path / "spans.json")
    for out, sp in ((plain, None), (traced, spans_path)):
        os.makedirs(out)
        proc = subprocess.run(run.cli_argv(label, args, out, sp), env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    checks.same_outputs(plain, traced)
    with open(spans_path) as fh:
        return spans.summarize(json.load(fh))


def calls(layers, name):
    return layers.get(name, {}).get("calls", 0)


def sa_calls(layers):
    return (calls(layers, "resp_spectrum.peak_displacement.refined")
            + calls(layers, "resp_spectrum.peak_displacement.plain"))


def test_fit_fc_counts(manifests, tmp_path):
    layers = traced_and_plain(tmp_path, "fit-fc", [
        "--manifest", manifests["fit"], "--fc-grid", FC_GRID, "--mc", "4"])
    assert calls(layers, "fc_opt.optimize_fc") == N_FIT
    assert calls(layers, "fc_opt.epsilon") == N_FIT * GRID_SIZE
    # fc_opt binds simulate, highpass and batch_sa_matrix by name
    assert calls(layers, "gm_model.simulate_spectral") == N_FIT
    assert calls(layers, "gm_model.highpass") == N_FIT * GRID_SIZE
    assert calls(layers, "resp_spectrum.batch_sa_matrix") == N_FIT * GRID_SIZE
    # one pass for the record, one per grid point
    assert sa_calls(layers) == N_FIT * N_MATCH * (1 + GRID_SIZE)


@pytest.mark.parametrize("label,extra,records,passes", [
    ("spectrum", [], N_MAIN, 1),
    ("stats", ["--compare"], N_MAIN + N_COMPARE, 1),
    ("sensitivity", [], N_MAIN, 1),
])
def test_spectrum_counts(manifests, tmp_path, label, extra, records, passes):
    args = ["--manifest", manifests["main"], "--periods", PERIODS]
    if extra:
        args += extra + [manifests["compare"]]
    layers = traced_and_plain(tmp_path, label, args)
    assert sa_calls(layers) == records * N_PERIODS * passes
    assert calls(layers, "resp_spectrum.compute_sa") == records * passes
    assert calls(layers, "catalog_io.parse_at2") == records
    if label == "sensitivity":
        assert calls(layers, "sensitivity.fit_bundle") == 1
        assert calls(layers, "sensitivity.ols_fit") == N_PERIODS


def test_simulate_counts(manifests, tmp_path):
    n = 3
    layers = traced_and_plain(tmp_path, "simulate", [
        "--manifest", manifests["sim"], "--n", str(n), "--engine", "temporal"])
    assert calls(layers, "gm_model.simulate_temporal") == N_SIM
    assert calls(layers, "gm_model._noise_matrix") == N_SIM
    assert layers["gm_model._noise_matrix"]["draws"] == N_SIM * n * M
    assert layers["gm_model.simulate_temporal"]["matrix_bytes"] == N_SIM * 2 * M * M * 8
    assert calls(layers, "gm_model.highpass") == N_SIM
    assert calls(layers, "gm_model.SimBatch.save_npz") == N_SIM


def test_self_time_subtracts_covered_child_time():
    sp = [{"trace": "t", "id": 1, "parent": None, "name": "a", "start": 0.0,
           "end": 10.0, "counts": {}},
          # two overlapping children (worker threads) and one disjoint
          {"trace": "t", "id": 2, "parent": 1, "name": "b", "start": 1.0,
           "end": 4.0, "counts": {"rows": 5}},
          {"trace": "t", "id": 3, "parent": 1, "name": "b", "start": 2.0,
           "end": 5.0, "counts": {"rows": 7}},
          {"trace": "t", "id": 4, "parent": 1, "name": "c", "start": 8.0,
           "end": 9.0, "counts": {}}]
    s = spans.summarize(sp)
    assert s["a"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert s["b"] == {"calls": 2, "self_s": pytest.approx(6.0), "rows": 12}


def test_benchmark_json_matches_run():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
