import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from stochgm import GMParams, simulate, simulate_spectral, write_at2
from stochgm.catalog_io import G_ACCEL, AccelerogramRecord, load_catalog, parse_manifest
from stochgm import cli, fc_opt
from stochgm.cli import main
from stochgm.errors import NumericalError
from stochgm.gm_model import apply_highpass, highpass_pad
from stochgm.resp_spectrum import PeriodUnderResolved


def synth_record(rec_id, log_ai, d595, t_mid, omega_mid, omega_rate, zeta_f,
                 fc, seed, dt=0.02, t_total=25.0):
    p = GMParams(log_ai=log_ai, d595=d595, t_mid=t_mid, omega_mid=omega_mid,
                 omega_rate=omega_rate, zeta_f=zeta_f, t_total=t_total)
    batch = apply_highpass(simulate_spectral(p, dt, 1, seed), fc)
    return AccelerogramRecord(id=rec_id, dt=dt, accel=batch.realizations[0],
                              unit="m/s2"), p


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    """Twelve synthetic records with a manifest carrying full parameters."""
    root = tmp_path_factory.mktemp("catalog")
    rng = np.random.default_rng(123)
    blocks = []
    for i in range(12):
        log_ai = float(np.log(0.3 + 0.4 * rng.random()))
        d595 = float(8.0 + 4.0 * rng.random())
        t_mid = float(4.0 + 2.0 * rng.random())
        omega_mid = float(12.0 + 6.0 * rng.random())
        omega_rate = float(-0.2 + 0.3 * rng.random())
        zeta_f = float(0.2 + 0.3 * rng.random())
        fc = float(0.1 + 0.6 * rng.random())
        rec, p = synth_record(f"rec{i:02d}", log_ai, d595, t_mid, omega_mid,
                              omega_rate, zeta_f, fc, seed=1000 + i)
        (root / f"rec{i:02d}.AT2").write_text(write_at2(rec))
        blocks.append("\n".join([
            f"id = rec{i:02d}", f"path = rec{i:02d}.AT2",
            f"log_ai = {log_ai}", f"d595 = {d595}", f"t_mid = {t_mid}",
            f"omega_mid = {omega_mid}", f"omega_rate = {omega_rate}",
            f"zeta_f = {zeta_f}",
            f"t_total = {p.t_total}", f"fc_hz = {fc}"]))
    (root / "manifest.txt").write_text("\n\n".join(blocks) + "\n")
    return root


def edited_manifest(catalog_dir, path, edits=(), keep=None):
    """Copy the fixture manifest to `path` with absolute AT2 paths, set
    `edits` (key -> value) on entry rec03 and keep the first `keep`
    entries."""
    blocks = []
    for block in (catalog_dir / "manifest.txt").read_text().split("\n\n")[:keep]:
        fields = dict(line.split(" = ", 1) for line in block.strip().splitlines())
        fields["path"] = str(catalog_dir / fields["path"])
        if fields["id"] == "rec03":
            fields.update(edits)
        blocks.append("\n".join(f"{k} = {v}" for k, v in fields.items()))
    path.write_text("\n\n".join(blocks) + "\n")
    return str(path)


def assert_data_error(argv, out, named, capsys):
    """The run exits 2 without a traceback and its run_log.json reports a
    data error whose message contains `named`."""
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("stochgm: error:") and "Traceback" not in err
    run_log = json.loads((out / "run_log.json").read_text())
    assert run_log["status"] == "data_error"
    assert named in run_log["error"]


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_missing_manifest(tmp_path, capsys):
    code = main(["stats", "--manifest", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err
    run_log = json.loads((tmp_path / "run_log.json").read_text())
    assert run_log["status"] == "data_error"


def test_data_error_is_one_stderr_line(tmp_path):
    # a fresh process, where basicConfig gives the stochgm logger a stderr
    # handler (under pytest it does not): the error is reported once
    env = {k: v for k, v in os.environ.items() if k != "STOCHGM_LOG"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "stochgm.cli", "fit-fc",
                           "--manifest", str(tmp_path / "nope.txt"),
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("stochgm: error: ") and "nope.txt" in line


def test_usage_error():
    assert main(["simulate"]) == 1


@pytest.mark.parametrize("command,flag", [
    ("stats", "--seed=1"),
    ("simulate", "--jobs=2"),
    ("convert", "--seed=1"),
    ("spectrum", "--jobs=2"),
    ("sensitivity", "--seed=1"),
    ("sample-params", "--jobs=2"),
    ("sensitivity", "--jobs=2"),
    ("fit-fc", "--jobs=2"),
])
def test_flag_on_subcommand_that_ignores_it_is_usage_error(tmp_path, capsys,
                                                           command, flag):
    # --seed is read only by simulate, fit-fc and sample-params; --jobs only
    # by stats
    assert main([command, "--manifest", "m.txt", "--out", str(tmp_path),
                 flag]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_convert(catalog_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["convert", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out)]) == 0
    assert (out / "rec00.AT2").exists()
    assert (out / "rec00.csv").exists()


@pytest.mark.parametrize("manifest", ["m.txt", "r1.csv"])
def test_convert_never_writes_over_its_inputs(tmp_path, capsys, monkeypatch, manifest):
    # run in the manifest's directory with the default --out ., r1.AT2 is
    # both a record read and an output, as is a manifest named r1.csv
    at2 = write_at2(AccelerogramRecord(id="NGA r1", dt=0.01, accel=[0.1, -0.2, 0.3]))
    (tmp_path / "r1.AT2").write_text(at2)
    (tmp_path / manifest).write_text("id = r1\npath = r1.AT2\n")
    monkeypatch.chdir(tmp_path)
    assert main(["convert", "--manifest", manifest]) == 2
    assert "entry r1: --out .:" in capsys.readouterr().err
    assert json.loads((tmp_path / "run_log.json").read_text())["status"] == "data_error"
    assert (tmp_path / "r1.AT2").read_text() == at2
    assert (tmp_path / manifest).read_text() == "id = r1\npath = r1.AT2\n"


def assert_input_kept(argv, path, capsys):
    """Run in the directory of `path`, an input, with the default --out .:
    the run exits 2 with one error line naming --out and `path` keeps its
    bytes."""
    kept = path.read_bytes()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("stochgm: error:") and err.count("\n") == 1
    assert f"--out .: ./{path.name} is an input" in err
    assert path.read_bytes() == kept


@pytest.mark.parametrize("command,manifest,flags", [
    ("convert", "run_log.json", []),
    ("simulate", "r1_summary.csv", ["--n", "2"]),
    ("spectrum", "r1_spectrum.csv", ["--periods", "0.1:1:3"]),
    ("spectrum", "run_log.json", ["--periods", "0.1:1:3"]),
    ("fit-fc", "fc_table.csv", ["--fc-grid", "0:1:0.5", "--mc", "2"]),
    ("stats", "recorded_stats.csv", ["--periods", "0.1:1:3"]),
    ("sensitivity", "r2.csv", ["--periods", "0.1:1:3"]),
    ("sample-params", "sampled_params.csv", ["--n", "10"]),
])
def test_no_output_replaces_the_manifest(catalog_dir, tmp_path, capsys, monkeypatch,
                                         command, manifest, flags):
    # the manifest is named after one of the run's outputs; entry rec03 is r1
    edited_manifest(catalog_dir, tmp_path / manifest, {"id": "r1"},
                    keep=4 if command == "fit-fc" else None)
    monkeypatch.chdir(tmp_path)
    assert_input_kept([command, "--manifest", manifest] + flags, tmp_path / manifest,
                      capsys)


@pytest.mark.parametrize("compare", ["run_log.json", "synthetic_stats.csv"])
def test_no_output_replaces_the_compare_manifest(catalog_dir, tmp_path, capsys,
                                                 monkeypatch, compare):
    edited_manifest(catalog_dir, tmp_path / "m.txt")
    edited_manifest(catalog_dir, tmp_path / compare)
    monkeypatch.chdir(tmp_path)
    assert_input_kept(["stats", "--manifest", "m.txt", "--compare", compare,
                       "--periods", "0.1:1:3"], tmp_path / compare, capsys)


def test_record_named_run_log_stops_the_run_at_load(tmp_path, capsys, monkeypatch):
    rec = AccelerogramRecord(id="r1", dt=0.01, accel=np.sin(np.arange(200) / 5.0))
    (tmp_path / "run_log.json").write_text(write_at2(rec))
    (tmp_path / "m.txt").write_text("id = r1\npath = run_log.json\n")
    monkeypatch.chdir(tmp_path)
    assert_input_kept(["spectrum", "--manifest", "m.txt", "--periods", "0.1:1:3"],
                      tmp_path / "run_log.json", capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt", "run_log.json"]


def test_run_log_that_cannot_be_written_is_data_error(catalog_dir, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "run_log.json").mkdir(parents=True)
    assert main(["spectrum", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--periods", "0.1:1:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"stochgm: error: --out {out}:") and err.count("\n") == 1
    assert (out / "rec11_spectrum.csv").exists()  # the run's outputs stay


@pytest.mark.parametrize("npts", [2, 4, 5, 6, 10, 11])
def test_convert_csv_as_csv_module_writes_it(tmp_path, npts):
    # the one-% body is the text csv.writer makes of per-value strings
    vals = [0.5, -1e-120, 3.25e7, -0.0, 1 / 3, -2e-5, 7.0, -8e120, 1e-300, 2.0, -1.0]
    rec = AccelerogramRecord(id="r", dt=0.0137, accel=vals[:npts])
    (tmp_path / "r.AT2").write_text(write_at2(rec))
    (tmp_path / "m.txt").write_text("id = r\npath = r.AT2\n")
    assert main(["convert", "--manifest", str(tmp_path / "m.txt"),
                 "--out", str(tmp_path / "out")]) == 0
    si = load_catalog(str(tmp_path / "m.txt")).records[0]
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(
        [("t_s", "accel_g")] + [(f"{i * si.dt:.6g}", f"{a / G_ACCEL:.7e}")
                                for i, a in enumerate(si.accel)])
    assert (tmp_path / "out" / "r.csv").read_bytes() == expected.getvalue().encode()


def test_simulate_deterministic(catalog_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--manifest", str(catalog_dir / "manifest.txt"),
                     "--out", str(out), "--engine", "spectral",
                     "--n", "5", "--seed", "7"]) == 0
        with np.load(out / "rec00_batch.npz") as z:
            outs.append(z["realizations"].copy())
    np.testing.assert_array_equal(outs[0], outs[1])
    _, rows = read_csv(tmp_path / "a" / "rec00_summary.csv")
    assert len(rows) == 5


def test_simulate_records_get_their_own_noise(catalog_dir, tmp_path):
    # two entries of one record and one parameter set: same dt, same length
    block = (catalog_dir / "manifest.txt").read_text().split("\n\n")[0]
    block = block.replace("path = rec00.AT2", f"path = {catalog_dir / 'rec00.AT2'}")
    (tmp_path / "m.txt").write_text(block.replace("id = rec00", "id = a") + "\n\n"
                                    + block.replace("id = rec00", "id = b") + "\n")
    out = tmp_path / "o"
    assert main(["simulate", "--manifest", str(tmp_path / "m.txt"), "--out", str(out),
                 "--n", "3", "--seed", "7"]) == 0
    with np.load(out / "a_batch.npz") as a, np.load(out / "b_batch.npz") as b:
        x, y = a["realizations"], b["realizations"]
        assert x.shape == y.shape and np.abs(x - y).max() > 0.5 * np.abs(x).max()
        assert a["seed"].tolist() == [7, 0] and b["seed"].tolist() == [7, 1]


@pytest.mark.parametrize("engine", ["temporal", "spectral"])
def test_simulate_record_k_is_a_run_under_seed_k(catalog_dir, tmp_path, engine):
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=3)
    out = tmp_path / "o"
    assert main(["simulate", "--manifest", manifest, "--out", str(out), "--n", "2",
                 "--seed", "7", "--engine", engine]) == 0
    catalog = load_catalog(manifest)
    rec = catalog.records[2]
    p = cli.entry_params(catalog.entries[2], rec)
    batch = apply_highpass(simulate(p, rec.dt, 2, (7, 2), engine), p.fc_hz)
    with np.load(out / f"{rec.id}_batch.npz") as z:
        np.testing.assert_array_equal(z["realizations"], batch.realizations)


def test_simulate_engines_agree_on_ai(catalog_dir, tmp_path):
    means = {}
    for engine in ("temporal", "spectral"):
        out = tmp_path / engine
        assert main(["simulate", "--manifest", str(catalog_dir / "manifest.txt"),
                     "--out", str(out), "--engine", engine,
                     "--n", "200", "--seed", "11"]) == 0
        _, rows = read_csv(out / "rec00_summary.csv")
        ai = np.array([float(r[1]) for r in rows])
        means[engine] = (ai.mean(), ai.std(ddof=1) / np.sqrt(ai.size))
        # health counter: the temporal engine's sigma is 0 at t = 0 only
        batches = json.loads((out / "run_log.json").read_text())["result"]["batches"]
        assert [b["sigma_floor_hits"] for b in batches] == \
            [int(engine == "temporal")] * 12
    diff = abs(means["temporal"][0] - means["spectral"][0])
    se = np.hypot(means["temporal"][1], means["spectral"][1])
    assert diff < 2.5 * se


def test_run_log_omega_nodes(catalog_dir, tmp_path):
    # the engines' interpolation nodes in omega, per batch: 1 for the entry
    # with a constant filter frequency (omega_rate = 0)
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt",
                               {"omega_rate": "0.0"}, keep=4)
    nodes = {}
    for sub, flags in (("simulate", ["--n", "2"]),
                       ("fit-fc", ["--mc", "2", "--fc-grid", "0.1:0.3:0.1"])):
        out = tmp_path / sub
        assert main([sub, "--manifest", manifest, "--out", str(out)] + flags) == 0
        result = json.loads((out / "run_log.json").read_text())["result"]
        nodes[sub] = ({b["id"]: b["omega_nodes"] for b in result["batches"]}
                      if sub == "simulate" else result["omega_nodes"])
    assert nodes["simulate"] == nodes["fit-fc"]
    assert nodes["simulate"]["rec03"] == 1
    assert all(1 < p < 100 for rid, p in nodes["simulate"].items() if rid != "rec03")


def test_spectrum(catalog_dir, tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--periods", "0.1:5:10"]) == 0
    header, rows = read_csv(out / "rec00_spectrum.csv")
    assert header == ["T_s", "Sa_g"]
    assert len(rows) == 10


def test_fit_fc_recovers(catalog_dir, tmp_path):
    out = tmp_path / "fc"
    assert main(["fit-fc", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--fc-grid", "0.05:0.95:0.1",
                 "--mc", "20", "--seed", "3"]) == 0
    _, rows = read_csv(out / "fc_table.csv")
    assert len(rows) == 12
    fc_hat = {rid: float(v) for rid, v in rows}
    # manifest-supplied true fc values should be recovered coarsely
    manifest = (catalog_dir / "manifest.txt").read_text()
    true = {}
    current = None
    for line in manifest.splitlines():
        if line.startswith("id"):
            current = line.split("=")[1].strip()
        if line.startswith("fc_hz"):
            true[current] = float(line.split("=")[1])
    close = sum(abs(fc_hat[k] - true[k]) <= 0.15 for k in true)
    assert close >= 9  # coarse grid + 20 MC; most records must recover

    # bracketed search: per-record diagnostics, epsilon CSVs list only
    # the evaluated corners
    search = json.loads((out / "run_log.json").read_text())["result"]["search"]
    assert set(search) == set(fc_hat)
    for rid, diag in search.items():
        assert set(diag) == {"evals", "fallback", "fc_on_edge"}
        # 10 grid points: all when the search fell back, else ends + bisection
        assert (diag["evals"] == 10) if diag["fallback"] else (diag["evals"] <= 6)
        assert diag["fc_on_edge"] == (fc_hat[rid] in (0.05, 0.95))
        _, eps = read_csv(out / f"{rid}_epsilon.csv")
        assert len(eps) == diag["evals"]


def test_fit_fc_empty_catalog(tmp_path):
    (tmp_path / "empty.txt").write_text("# nothing\n")
    assert main(["fit-fc", "--manifest", str(tmp_path / "empty.txt"),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flags", [
    ["--fc-grid", "0:0.5:0"],
    ["--fc-grid", "0.5:0:0.1"],
    ["--fc-grid=-0.1:0.5:0.1"],
    ["--mc", "1"],
    ["--fc-grid", "0:2:1e-12"],     # 2e12 grid points
    ["--fc-grid", "1e-9:0.5:0.1"],  # a high-pass pad of ~1.8e11 samples
])
def test_fit_fc_bad_search_is_data_error(catalog_dir, tmp_path, flags):
    out = tmp_path / "o"
    assert main(["fit-fc", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out)] + flags) == 2
    run_log = json.loads((out / "run_log.json").read_text())
    assert run_log["status"] == "data_error"
    assert any(s in run_log["error"] for s in ("--fc-grid", "--mc", "entry rec00"))
    assert not (out / "fc_table.csv").exists()


def test_fit_fc_short_record_default_grid(tmp_path):
    # an 8 s record on the default 0:2:0.01 grid, whose 0.01 Hz point is
    # below 1/(10 T), must still fit
    padded, p = synth_record("short", np.log(0.5), 4.0, 2.0, 15.0, -0.1,
                             0.3, 0.4, seed=42, t_total=8.0)
    rec = AccelerogramRecord(id="short", dt=padded.dt,
                             accel=padded.accel[:400], unit="m/s2")
    (tmp_path / "short.AT2").write_text(write_at2(rec))
    (tmp_path / "manifest.txt").write_text("\n".join([
        "id = short", "path = short.AT2", f"log_ai = {p.log_ai}",
        f"d595 = {p.d595}", f"t_mid = {p.t_mid}", f"omega_mid = {p.omega_mid}",
        f"omega_rate = {p.omega_rate}", f"zeta_f = {p.zeta_f}",
        f"t_total = {p.t_total}"]) + "\n")
    out = tmp_path / "o"
    assert main(["fit-fc", "--manifest", str(tmp_path / "manifest.txt"),
                 "--out", str(out), "--mc", "10"]) == 0
    _, rows = read_csv(out / "fc_table.csv")
    assert [r[0] for r in rows] == ["short"]
    assert json.loads((out / "run_log.json").read_text())["status"] == "ok"


@pytest.mark.parametrize("command", ["simulate", "sample-params"])
def test_n_below_one_is_data_error(catalog_dir, tmp_path, command):
    out = tmp_path / "o"
    assert main([command, "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--n", "0"]) == 2
    run_log = json.loads((out / "run_log.json").read_text())
    assert run_log["status"] == "data_error"
    assert "--n" in run_log["error"]


@pytest.mark.parametrize("command,edits", [
    ("simulate", {"zeta_f": "1.5"}),
    ("fit-fc", {"zeta_f": "1.5"}),
    ("sample-params", {"zeta_f": "1.5"}),
    ("simulate", {"t_mid": "50", "t_total": "20"}),
    ("simulate", {"fc_hz": "1e-9"}),  # a high-pass pad of ~1.8e11 samples
    ("simulate", {"fc_hz": "nan"}),
    ("fit-fc", {"d595": "inf"}),
])
def test_bad_manifest_entry_is_data_error(catalog_dir, tmp_path, capsys,
                                          command, edits):
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", edits)
    flags = ["--n", "2"] if command == "simulate" else []
    assert_data_error([command, "--manifest", manifest] + flags,
                      tmp_path / "o", "entry rec03", capsys)


@pytest.mark.parametrize("command,rec_id", [("convert", "../escaped"),
                                            ("spectrum", "a/b")])
def test_id_outside_out_is_data_error(catalog_dir, tmp_path, capsys, command, rec_id):
    (tmp_path / "m.txt").write_text(f"id = {rec_id}\npath = {catalog_dir / 'rec00.AT2'}\n")
    before = sorted(tmp_path.rglob("*"))
    assert_data_error([command, "--manifest", str(tmp_path / "m.txt")],
                      tmp_path / "o", f"entry {rec_id!r}", capsys)
    assert sorted(tmp_path.rglob("*")) == before + [tmp_path / "o", tmp_path / "o" / "run_log.json"]


@pytest.mark.parametrize("command", ["spectrum", "convert"])
def test_infinite_dt_is_data_error(catalog_dir, tmp_path, capsys, command):
    # "DT= 1e999" parses to inf; convert would write "DT= inf", which no
    # parser reads back
    at2 = (catalog_dir / "rec00.AT2").read_text()
    assert "DT= 0.02 " in at2
    (tmp_path / "inf.AT2").write_text(at2.replace("DT= 0.02 ", "DT= 1e999 "))
    (tmp_path / "m.txt").write_text("id = rec00\npath = inf.AT2\n")
    assert_data_error([command, "--manifest", str(tmp_path / "m.txt")],
                      tmp_path / "o", "entry rec00: record rec00: dt must be finite", capsys)


@pytest.mark.parametrize("command,periods", [
    ("spectrum", "0:10:20"),
    ("spectrum", "10:0.05:20"),
    ("spectrum", "-1:10:5"),
    ("spectrum", "0.05:nan:5"),
    ("spectrum", "0.1:5:2.5"),
    ("stats", "0.05:10:0"),
    ("stats", "0.05:10:1"),
    ("spectrum", "0.05:10:1e9"),     # an 8 GB period grid
    ("stats", "0.05:10:100001"),
    ("sensitivity", "0.05:10:4097"),  # 4097 x 4097 matrices: over the cap
])
def test_bad_periods_is_data_error(catalog_dir, tmp_path, capsys, command,
                                   periods):
    assert_data_error([command, "--manifest", str(catalog_dir / "manifest.txt"),
                       f"--periods={periods}"], tmp_path / "o", "--periods", capsys)


@pytest.mark.parametrize("command,flag", [
    ("simulate", "--seed=-1"),
    ("stats", "--jobs=0"),
    ("sample-params", "--n=0"),
])
def test_flag_below_minimum_is_data_error(catalog_dir, tmp_path, capsys,
                                          command, flag):
    assert_data_error([command, "--manifest", str(catalog_dir / "manifest.txt"),
                       flag], tmp_path / "o", flag.split("=")[0], capsys)


@pytest.mark.parametrize("command", ["simulate", "fit-fc", "sample-params"])
def test_seed_over_32_bits_is_data_error(catalog_dir, tmp_path, capsys, command):
    # numpy reads a seed of 2**32 or more as two words, so simulate's
    # entropy (2**32 + 5, 0) would draw the noise of (5, 1)
    assert_data_error([command, "--manifest", str(catalog_dir / "manifest.txt"),
                       f"--seed={2 ** 32}"], tmp_path / "o",
                      f"--seed must be at most {2 ** 32 - 1}", capsys)


def test_largest_seed_runs(catalog_dir, tmp_path):
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=1)
    assert main(["simulate", "--manifest", manifest, "--out", str(tmp_path / "o"),
                 "--n", "2", f"--seed={2 ** 32 - 1}"]) == 0


@pytest.mark.parametrize("command,flags", [
    ("simulate", ["--n", "2"]),
    ("fit-fc", ["--fc-grid", "0.1:0.3:0.1", "--mc", "4"]),
])
def test_modulator_solved_once_per_entry(catalog_dir, tmp_path, monkeypatch,
                                         command, flags):
    # _load solves each entry's modulator to check it; the engine reuses it
    from stochgm import gm_model

    solves = []
    solve = gm_model.solve_modulator
    monkeypatch.setattr(gm_model, "solve_modulator",
                        lambda *a: solves.append(a) or solve(*a))
    gm_model._modulator.cache_clear()
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=3)
    assert main([command, "--manifest", manifest, "--out", str(tmp_path / "o")]
                + flags) == 0
    assert len(solves) == 3


@pytest.mark.parametrize("command,flag", [("simulate", "--n"), ("fit-fc", "--mc")])
def test_draws_over_cap_is_data_error(catalog_dir, tmp_path, capsys, command,
                                      flag):
    # 10^6 realizations of 1251 samples: 10 GB per float64 array
    assert_data_error([command, "--manifest", str(catalog_dir / "manifest.txt"),
                       flag, str(10 ** 6)], tmp_path / "o",
                      f"entry rec00: {flag} 1000000", capsys)


def test_draws_cap_boundary(catalog_dir, tmp_path, capsys, monkeypatch):
    # the cap counts the samples the high-pass pads on at the entry's fc_hz
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=1)
    [entry] = parse_manifest((tmp_path / "m.txt").read_text())
    m = 1251 + highpass_pad(entry.params["fc_hz"], 0.02)
    monkeypatch.setattr(cli, "MAX_SIM_ELEMENTS", 3 * m)
    assert main(["simulate", "--manifest", manifest, "--n", "3",
                 "--out", str(tmp_path / "ok")]) == 0
    assert_data_error(["simulate", "--manifest", manifest, "--n", "4"],
                      tmp_path / "o", f"entry rec00: --n 4 realizations x {m}",
                      capsys)


def test_mc_cap_counts_pad_at_lowest_grid_corner(catalog_dir, tmp_path, capsys,
                                                 monkeypatch):
    # fit-fc pads for the grid's smallest nonzero corner, 0.05 Hz here
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=1)
    m = 1251 + highpass_pad(0.05, 0.02)
    monkeypatch.setattr(cli, "MAX_SIM_ELEMENTS", 2 * m)
    flags = ["--manifest", manifest, "--fc-grid", "0:0.95:0.05"]
    assert main(["fit-fc", "--mc", "2", "--out", str(tmp_path / "ok")]
                + flags) == 0
    assert_data_error(["fit-fc", "--mc", "3"] + flags, tmp_path / "o",
                      f"entry rec00: --mc 3 realizations x {m}", capsys)


def test_periods_cap_boundary(catalog_dir, tmp_path, capsys, monkeypatch):
    # COUNT x COUNT matrices: COUNT is capped at isqrt(MAX_SIM_ELEMENTS)
    monkeypatch.setattr(cli, "MAX_SIM_ELEMENTS", 24)
    manifest = str(catalog_dir / "manifest.txt")
    assert main(["stats", "--manifest", manifest, "--periods", "1:2:4",
                 "--out", str(tmp_path / "ok")]) == 0
    assert_data_error(["stats", "--manifest", manifest, "--periods", "1:2:5"],
                      tmp_path / "o", "COUNT in [2, 4]", capsys)


def test_sample_params_n_cap_boundary(catalog_dir, tmp_path, capsys, monkeypatch):
    # --n x 7 draws are capped before the fit: 10^12 draws would ask numpy
    # for 51 TiB and end in a traceback with no run log
    monkeypatch.setattr(cli, "MAX_SIM_ELEMENTS", 70)
    manifest = str(catalog_dir / "manifest.txt")
    assert main(["sample-params", "--manifest", manifest, "--n", "10",
                 "--out", str(tmp_path / "ok")]) == 0
    assert_data_error(["sample-params", "--manifest", manifest, "--n", "11"],
                      tmp_path / "o", "--n 11 samples x 7 parameters exceeds 70",
                      capsys)


# LO 5.82e-5 s at dt 0.02 s gives refine factor ceil(0.64 / 5.82e-5) = 10997;
# x 1527 samples is just past MAX_SIM_ELEMENTS = 2^24 (LO 5.83e-5 s is not)
REFINE_OVER_CAP = "entry rec00: --periods LO 5.82e-05 s: refine factor 10997 x 1527"


@pytest.mark.parametrize("command", ["spectrum", "stats", "sensitivity"])
def test_refined_periods_over_cap_is_data_error(catalog_dir, tmp_path, capsys,
                                                command):
    assert_data_error([command, "--manifest", str(catalog_dir / "manifest.txt"),
                       "--periods", "5.82e-5:1:2"], tmp_path / "o",
                      REFINE_OVER_CAP, capsys)


def test_refined_periods_cap_boundary(catalog_dir, tmp_path, capsys, monkeypatch):
    # LO 0.4 s at dt 0.02 s: refine factor 2, x 1527 samples
    monkeypatch.setattr(cli, "MAX_SIM_ELEMENTS", 2 * 1527)
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=1)
    assert main(["spectrum", "--manifest", manifest, "--periods", "0.4:1:2",
                 "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(cli, "MAX_SIM_ELEMENTS", 2 * 1527 - 1)
    assert_data_error(["spectrum", "--manifest", manifest, "--periods", "0.4:1:2"],
                      tmp_path / "o", "refine factor 2 x 1527 samples", capsys)


def test_stats_checks_compare_periods_before_any_spectrum(catalog_dir, tmp_path,
                                                          capsys):
    # 600 samples fit at refine factor 10997; the compare catalog's 1527 do not
    blocks = []
    records = load_catalog(str(catalog_dir / "manifest.txt")).records[:3]
    for i, rec in enumerate(records):
        short = AccelerogramRecord(id=f"short{i}", dt=rec.dt,
                                   accel=rec.accel[:600], unit=rec.unit)
        (tmp_path / f"short{i}.AT2").write_text(write_at2(short))
        blocks.append(f"id = short{i}\npath = short{i}.AT2\n")
    (tmp_path / "m.txt").write_text("\n".join(blocks))
    out = tmp_path / "o"
    assert_data_error(["stats", "--manifest", str(tmp_path / "m.txt"),
                       "--compare", str(catalog_dir / "manifest.txt"),
                       "--periods", "5.82e-5:1:2"], out, REFINE_OVER_CAP, capsys)
    assert sorted(p.name for p in out.iterdir()) == ["run_log.json"]


@pytest.mark.parametrize("command,flags,edits,named", [
    ("fit-fc", ["--fc-grid", "900:1000:100", "--mc", "5"], {}, "entry rec00"),
    ("simulate", ["--n", "2"], {"fc_hz": "30"}, "entry rec03"),
    # only the grid's top end is too high
    ("fit-fc", ["--fc-grid", "0:30:0.01", "--mc", "5"], {}, "entry rec00: fc = 30 Hz"),
])
def test_corner_at_or_above_nyquist_is_data_error(catalog_dir, tmp_path, capsys,
                                                  monkeypatch, command, flags,
                                                  edits, named):
    # dt = 0.02 s: the Nyquist frequency is 25 Hz, and the run must stop
    # as the catalog loads, before fit-fc simulates anything
    calls = []
    simulate = fc_opt.simulate
    monkeypatch.setattr(fc_opt, "simulate",
                        lambda *a, **k: calls.append(a) or simulate(*a, **k))
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", edits)
    assert_data_error([command, "--manifest", manifest] + flags, tmp_path / "o",
                      named, capsys)
    error = json.loads((tmp_path / "o" / "run_log.json").read_text())["error"]
    assert "Nyquist" in error
    assert calls == []


@pytest.mark.parametrize("command,flags,keep", [
    ("stats", ["--periods", "0.1:5:12"], None),
    ("sensitivity", ["--periods", "0.1:5:10"], None),
    ("fit-fc", ["--fc-grid", "0.1:0.5:0.2", "--mc", "5"], 4),
])
def test_record_with_no_motion_is_data_error(catalog_dir, tmp_path, capsys,
                                             command, flags, keep):
    # an all-zero record has Sa = 0 at every period: log Sa is undefined,
    # so neither statistics nor an fc fit can use it
    zero = AccelerogramRecord(id="rec03", dt=0.02, accel=np.zeros(1251))
    (tmp_path / "zero.AT2").write_text(write_at2(zero))
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt",
                               {"path": str(tmp_path / "zero.AT2")}, keep)
    assert_data_error([command, "--manifest", manifest] + flags, tmp_path / "o",
                      "entry rec03: zero Sa", capsys)


@pytest.mark.parametrize("command,flags", [
    ("simulate", ["--n", "3"]),
    ("fit-fc", ["--mc", "2", "--fc-grid", "0.1:0.3:0.1"]),
])
@pytest.mark.parametrize("edits,named", [
    ({"omega_mid": "26"}, "entry rec03: omega_max*dt = 0.540 >= 0.5"),
    ({"d595": "24", "t_mid": "5"}, "entry rec03: no gamma modulator reproduces"),
    ({"log_ai": "800"}, "entry rec03: AI = exp(log_ai=800.0) is outside the float range"),
])
def test_entry_the_model_refuses_is_data_error_at_load(catalog_dir, tmp_path, capsys,
                                                       command, flags, edits, named):
    # rec03 comes last: the run stops as the catalog loads, before rec00
    # is simulated or fitted, and writes nothing but its run log
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", edits, keep=4)
    out = tmp_path / "o"
    assert_data_error([command, "--manifest", manifest] + flags, out, named, capsys)
    assert sorted(p.name for p in out.iterdir()) == ["run_log.json"]


def test_numerical_failure_names_the_entry(catalog_dir, tmp_path, capsys,
                                           monkeypatch):
    def optimize_fc(rec, *args):
        raise NumericalError("zero spread")

    monkeypatch.setattr(fc_opt, "optimize_fc", optimize_fc)
    out = tmp_path / "o"
    assert main(["fit-fc", "--manifest", edited_manifest(catalog_dir, tmp_path / "m.txt"),
                 "--out", str(out), "--mc", "2", "--fc-grid", "0.1:0.3:0.1"]) == 3
    assert capsys.readouterr().err == "stochgm: numerical failure: entry rec00: zero spread\n"
    assert json.loads((out / "run_log.json").read_text())["status"] == "numerical_error"


@pytest.mark.parametrize("command", ["sensitivity", "sample-params"])
def test_parameter_same_on_every_entry_is_data_error(catalog_dir, tmp_path, capsys,
                                                     command):
    manifest = tmp_path / "m.txt"
    text = Path(edited_manifest(catalog_dir, manifest)).read_text()
    manifest.write_text("\n".join("zeta_f = 0.3" if line.startswith("zeta_f =") else line
                                  for line in text.splitlines()) + "\n")
    assert_data_error([command, "--manifest", str(manifest)], tmp_path / "o",
                      f"--manifest {manifest}: zeta_f is 0.3 on every entry", capsys)


def test_dependent_parameters_are_data_error(catalog_dir, tmp_path, capsys):
    # each entry's fc_hz equal to its own zeta_f: no column is constant, but
    # the design matrix is rank deficient
    manifest = tmp_path / "m.txt"
    blocks = []
    for block in Path(edited_manifest(catalog_dir, manifest)).read_text().split("\n\n"):
        fields = dict(line.split(" = ", 1) for line in block.strip().splitlines())
        fields["fc_hz"] = fields["zeta_f"]
        blocks.append("\n".join(f"{k} = {v}" for k, v in fields.items()))
    manifest.write_text("\n\n".join(blocks) + "\n")
    assert_data_error(["sensitivity", "--manifest", str(manifest)], tmp_path / "o",
                      f"--manifest {manifest}: design matrix (with intercept) is rank "
                      "deficient", capsys)


def test_fit_fc_independent_of_cpus(catalog_dir, tmp_path, monkeypatch):
    # at --mc 100 every high-pass and plain-period batch (100, 1251 + pad)
    # holds more than two row blocks, so on 3 CPUs each splits its rows
    from stochgm import resp_spectrum

    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=2)
    outs = [tmp_path / f"cpus{cpus}" for cpus in (1, 3)]
    splits = []
    workers = resp_spectrum._workers
    monkeypatch.setattr(resp_spectrum, "_workers",
                        lambda: splits.append(1) or workers())
    for cpus, out in zip((1, 3), outs):
        monkeypatch.setattr(resp_spectrum, "_CPUS", cpus)
        assert main(["fit-fc", "--manifest", manifest, "--out", str(out),
                     "--fc-grid", "0.05:0.95:0.1"]) == 0
        assert bool(splits) == (cpus > 1)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names == sorted(p.name for p in outs[1].glob("*.csv"))
    assert "fc_table.csv" in names and len(names) == 3
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("body", [
    "NPTS=      1, DT=    0.0100  SEC\n  1.0e-01\n",
    "NPTS=      2, DT=    0.0000  SEC\n  1.0e-01  2.0e-01\n",
    "NPTS=      2, DT=    0.0100  SEC\n  1.0e-01  abc\n",
], ids=["one-sample", "zero-dt", "not-a-number"])
def test_bad_at2_is_data_error(tmp_path, capsys, body):
    (tmp_path / "r.AT2").write_text("title\nsource\nunits\n" + body)
    (tmp_path / "m.txt").write_text("id = r\npath = r.AT2\n")
    assert_data_error(["spectrum", "--manifest", str(tmp_path / "m.txt")],
                      tmp_path / "o", "entry r", capsys)


@pytest.mark.parametrize("compare", [False, True], ids=["manifest", "compare"])
def test_manifest_not_utf8_is_data_error(catalog_dir, tmp_path, capsys, compare):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"id = a\npath = a.AT2\n\xff\xfe bad\n")
    good = edited_manifest(catalog_dir, tmp_path / "m.txt")
    argv = (["stats", "--manifest", good, "--compare", str(bad)] if compare
            else ["convert", "--manifest", str(bad)])
    assert_data_error(argv, tmp_path / "o", f"manifest {bad}:", capsys)


def test_out_is_a_file_is_data_error(catalog_dir, tmp_path, capsys):
    out = tmp_path / "some_file"
    out.write_text("not a directory\n")
    assert main(["convert", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"stochgm: error: --out {out}:") and err.count("\n") == 1
    assert out.read_text() == "not a directory\n"  # nowhere to write a run log


def test_sensitivity_too_few_records_is_data_error(catalog_dir, tmp_path, capsys):
    manifest = edited_manifest(catalog_dir, tmp_path / "m.txt", keep=6)
    assert_data_error(["sensitivity", "--manifest", manifest], tmp_path / "o",
                      "--manifest", capsys)


def test_stats_single_and_compare(catalog_dir, tmp_path):
    out = tmp_path / "stats1"
    assert main(["stats", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--periods", "0.1:5:12"]) == 0
    header, rows = read_csv(out / "recorded_stats.csv")
    assert header[0] == "T_s" and len(rows) == 12
    assert (out / "recorded_correlation.csv").exists()
    svg = "{http://www.w3.org/2000/svg}"
    for name in ("stats.svg", "correlation.svg"):  # one panel per statistic or T2
        root = ET.parse(out / name).getroot()
        assert root.tag == f"{svg}svg"
        assert [len(g.findall(f"{svg}svg")) for g in root.findall(f"{svg}g")] == [1] * 4
    assert not (out / "synthetic_stats.csv").exists()

    out2 = tmp_path / "stats2"
    assert main(["stats", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--compare", str(catalog_dir / "manifest.txt"),
                 "--out", str(out2), "--periods", "0.1:5:12"]) == 0
    assert (out2 / "synthetic_stats.csv").exists()


def test_sensitivity_outputs(catalog_dir, tmp_path):
    out = tmp_path / "sens"
    assert main(["sensitivity", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--periods", "0.1:5:10"]) == 0
    _, rows = read_csv(out / "r2.csv")
    assert len(rows) == 10
    assert all(0.0 <= float(r[1]) <= 1.0 + 1e-9 for r in rows)
    header, rows = read_csv(out / "covariance_percentages.csv")
    assert header[:2] == ["T1_s", "T2_s"]
    for r in rows:
        assert sum(float(v) for v in r[2:]) == pytest.approx(100.0, abs=1e-6)
    assert (out / "rho_full.csv").exists()
    assert (out / "rho_const_fc.csv").exists()
    assert (out / "rho_no_cov.csv").exists()
    assert (out / "variance_scenarios.csv").exists()


@pytest.mark.parametrize("periods,count", [("0.1:5:10", 4), ("0.1:0.9:4", 0)])
def test_sensitivity_fc_share(catalog_dir, tmp_path, periods, count):
    # mean over T >= 1 s of 1 - var_const_fc / var_full, as the CSV holds them
    out = tmp_path / "sens"
    assert main(["sensitivity", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--periods", periods]) == 0
    result = json.loads((out / "run_log.json").read_text())["result"]
    _, rows = read_csv(out / "variance_scenarios.csv")
    shares = [1 - float(r[2]) / float(r[1]) for r in rows if float(r[0]) >= 1]
    assert result["fc_share_periods"] == len(shares) == count
    if count:
        assert result["fc_share"] == pytest.approx(np.mean(shares), abs=1e-7)
    else:
        assert result["fc_share"] is None


def test_sample_params(catalog_dir, tmp_path):
    out = tmp_path / "sp"
    assert main(["sample-params", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--n", "50", "--seed", "5"]) == 0
    header, rows = read_csv(out / "sampled_params.csv")
    assert header[-1] == "fc_hz"
    assert len(rows) == 50
    assert all(float(r[-1]) >= 0 for r in rows)
    assert (out / "joint_model.txt").exists()


def test_run_log_written_on_success(catalog_dir, tmp_path):
    out = tmp_path / "log"
    assert main(["spectrum", "--manifest", str(catalog_dir / "manifest.txt"),
                 "--out", str(out), "--periods", "0.5:2:4"]) == 0
    run_log = json.loads((out / "run_log.json").read_text())
    assert run_log["status"] == "ok"
    assert run_log["command"] == "spectrum"
    assert run_log["seed"] is None  # spectrum reads no seed


@pytest.mark.parametrize("periods,status", [("0.5:2:4", "ok"),
                                            ("2:0.5:4", "data_error")])
def test_run_log_timing_and_versions(catalog_dir, tmp_path, periods, status):
    out = tmp_path / "log"
    main(["spectrum", "--manifest", str(catalog_dir / "manifest.txt"),
          "--out", str(out), "--periods", periods])
    run_log = json.loads((out / "run_log.json").read_text())
    assert run_log["status"] == status
    assert isinstance(run_log["elapsed_s"], float) and run_log["elapsed_s"] >= 0
    assert set(run_log["versions"]) == {"python", "numpy", "scipy", "stochgm"}
    assert all(isinstance(v, str) and v for v in run_log["versions"].values())


@pytest.mark.parametrize("argv", [["spectrum", "--periods", "0.5:2:4"],
                                  ["sample-params", "--n", "10"]])
def test_run_log_peak_rss(catalog_dir, tmp_path, argv):
    out = tmp_path / "rss"
    assert main(argv + ["--manifest", str(catalog_dir / "manifest.txt"),
                        "--out", str(out)]) == 0
    run_log = json.loads((out / "run_log.json").read_text())
    # this process's own peak: it holds at least the interpreter and numpy
    assert isinstance(run_log["peak_rss_mb"], float) and run_log["peak_rss_mb"] > 10
    assert "peak_rss_mb" not in run_log["result"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no VmHWM")
def test_run_log_peak_rss_is_the_runs_own(tmp_path):
    # a launcher holding 200 MiB starts a small convert: on Linux the
    # child's ru_maxrss starts at the launcher's peak, its VmHWM does not
    rec = AccelerogramRecord(id="r0", dt=0.01, accel=np.sin(np.arange(50) / 5.0))
    (tmp_path / "r0.AT2").write_text(write_at2(rec))
    (tmp_path / "m.txt").write_text("id = r0\npath = r0.AT2\n")
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    launcher = textwrap.dedent(f"""
        import os, subprocess, sys
        import numpy as np
        held = np.ones(200 * 2 ** 20 // 8)
        env = dict(os.environ, PYTHONPATH={src!r})
        subprocess.run([sys.executable, "-m", "stochgm.cli", "convert",
                        "--manifest", {str(tmp_path / "m.txt")!r},
                        "--out", {str(out)!r}], env=env, check=True)
    """)
    subprocess.run([sys.executable, "-c", launcher], check=True)
    assert json.loads((out / "run_log.json").read_text())["peak_rss_mb"] < 100


@pytest.mark.parametrize("command", ["spectrum", "stats", "sensitivity"])
def test_run_log_spectra_health(catalog_dir, tmp_path, command):
    # 12 records at dt = 0.02 s; of the periods 0.03..2 s only 0.03 s is
    # below 2 dt, and it is read ceil(32 * 0.02 / 0.03) = 22 times per step
    out = tmp_path / "health"
    with pytest.warns(PeriodUnderResolved):
        assert main([command, "--manifest", str(catalog_dir / "manifest.txt"),
                     "--out", str(out), "--periods", "0.03:2:6"]) == 0
    result = json.loads((out / "run_log.json").read_text())["result"]
    health = {"under_resolved_periods": 12, "max_refine": 22}
    if command == "sensitivity":
        # the periods of each fc scenario whose variance is not positive
        health["negative_variance_periods"] = {"const_fc": 0, "no_cov": 0}
        header, rows = read_csv(out / "variance_scenarios.csv")
        assert {mode: sum(float(row[header.index(f"var_{mode}")]) <= 0 for row in rows)
                for mode in ("const_fc", "no_cov")} == health["negative_variance_periods"]
    assert result["health"] == health
