"""What each entry point imports. The package resolves its public names on
first use and the CLI imports per subcommand, so no subcommand loads
scipy's signal, stats or optimize packages. None loads the scipy.linalg
package either. Three private extension modules are loaded alone, without
their packages or scipy's array-API layer: sosfilt's second-order-section
loop (scipy.signal._sosfilt), which spectrum, stats and sensitivity run on
with numpy; and brentq's loop (scipy.optimize._zeros) and the
incomplete-gamma ufuncs (scipy.special._special_ufuncs), which simulate and
fit-fc add. Only sample-params loads the scipy.special package. Each check
runs in a fresh interpreter, because this test process has imported
everything already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy

from stochgm import GMParams, apply_highpass, simulate_spectral
from stochgm.catalog_io import AccelerogramRecord, write_at2
from stochgm.resp_spectrum import _load_extension

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize")
# scipy's package layer and LAPACK, which a process on numpy and sosfilt's
# loop does not load
PACKAGE_LAYER = ("scipy.linalg", "scipy.linalg._flapack", "scipy.special",
                 "scipy._lib._array_api")


def run_fresh(code):
    """Run `code` in a fresh interpreter importing from src/; fail with
    its stderr if it exits non-zero."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_heavy_scipy():
    run_fresh(f"""
        import sys
        import stochgm.cli
        assert not [m for m in {HEAVY!r} if m in sys.modules], sys.modules
    """)


def test_convert_loads_no_heavy_scipy(tmp_path):
    rec = AccelerogramRecord(id="r0", dt=0.01, accel=np.sin(np.arange(50) / 5.0))
    (tmp_path / "r0.AT2").write_text(write_at2(rec))
    (tmp_path / "m.txt").write_text("id = r0\npath = r0.AT2\n")
    out = tmp_path / "out"
    run_fresh(f"""
        import sys
        from stochgm import cli
        assert cli.main(["convert", "--manifest", {str(tmp_path / "m.txt")!r},
                         "--out", {str(out)!r}]) == 0
        assert not [m for m in {HEAVY + PACKAGE_LAYER!r} if m in sys.modules], sys.modules
    """)
    assert (out / "r0.AT2").read_text() == write_at2(rec)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--periods", "0.1:2:5"],
    ["simulate", "--n", "2"],
    ["fit-fc", "--mc", "2", "--fc-grid", "0.1:0.3:0.1"],
])
def test_computing_subcommands_load_no_heavy_scipy(tmp_path, argv):
    p = GMParams(np.log(0.5), 4.0, 2.5, 15.0, 0.0, 0.3, 10.0)
    batch = apply_highpass(simulate_spectral(p, 0.02, 1, 1), 0.3)
    rec = AccelerogramRecord(id="r0", dt=0.02, accel=batch.realizations[0], unit="m/s2")
    (tmp_path / "r0.AT2").write_text(write_at2(rec))
    (tmp_path / "m.txt").write_text("id = r0\npath = r0.AT2\n" + "".join(
        f"{k} = {v}\n" for k, v in vars(p.with_fc(0.3)).items()))
    run_fresh(f"""
        import sys
        from stochgm import cli
        assert cli.main({argv!r} + ["--manifest", {str(tmp_path / "m.txt")!r},
                                    "--out", {str(tmp_path / "out")!r}]) == 0
        absent = {HEAVY + PACKAGE_LAYER!r}
        assert not [m for m in absent if m in sys.modules], sys.modules
    """)


def _catalog(directory):
    """A manifest of 10 distinct records, each with all seven parameters."""
    rng = np.random.default_rng(1)
    t = np.arange(500) * 0.01
    entries = []
    for i in range(10):
        accel = np.sin(2 * np.pi * rng.uniform(0.5, 5) * t) + rng.normal(0, 0.1, t.size)
        rec = AccelerogramRecord(id=f"r{i}", dt=0.01, accel=accel)
        (directory / f"r{i}.AT2").write_text(write_at2(rec))
        entries.append(
            f"id = r{i}\npath = r{i}.AT2\nlog_ai = {rng.normal(-1, 0.3)}\n"
            f"d595 = {rng.uniform(1, 3)}\nt_mid = {rng.uniform(1.5, 2.5)}\n"
            f"omega_mid = {rng.uniform(10, 20)}\nomega_rate = {rng.normal(0, 0.1)}\n"
            f"zeta_f = {rng.uniform(0.2, 0.5)}\nfc_hz = {rng.uniform(0.1, 0.5)}\n")
    manifest = directory / "m.txt"
    manifest.write_text("\n".join(entries))
    return str(manifest)


def test_sample_params_loads_no_heavy_scipy(tmp_path):
    # the marginals and the copula run on scipy.special alone, which shares
    # the one _special_ufuncs module that gm_model loads
    manifest = _catalog(tmp_path)
    run_fresh(f"""
        import sys
        from stochgm import cli, gm_model
        assert cli.main(["sample-params", "--n", "20", "--manifest", {manifest!r},
                         "--out", {str(tmp_path / "out")!r}]) == 0
        absent = {HEAVY + ("scipy.linalg",)!r}
        assert not [m for m in absent if m in sys.modules], sys.modules
        from scipy.special import _special_ufuncs
        assert gm_model._special is _special_ufuncs
    """)
    assert (tmp_path / "out" / "sampled_params.csv").exists()


@pytest.mark.parametrize("command", ["stats", "sensitivity"])
def test_catalog_subcommands_load_no_package_layer(tmp_path, command):
    # log Sa, its statistics and the regression need numpy and _sosfilt alone
    manifest = _catalog(tmp_path)
    argv = [command, "--periods", "0.1:2:5", "--manifest", manifest,
            "--out", str(tmp_path / "out")]
    if command == "stats":
        argv += ["--compare", manifest]
    run_fresh(f"""
        import sys
        from stochgm import cli
        assert cli.main({argv!r}) == 0
        absent = {HEAVY + PACKAGE_LAYER!r}
        assert not [m for m in absent if m in sys.modules], sys.modules
        assert "scipy.signal._sosfilt" in sys.modules
    """)


def test_gm_params_loads_no_scipy_special():
    run_fresh(f"""
        import sys
        from stochgm import GMParams
        assert not [m for m in {PACKAGE_LAYER!r} if m in sys.modules], sys.modules
    """)


@pytest.mark.parametrize("first", ["stochgm.resp_spectrum", "scipy.signal"])
def test_sosfilt_is_scipy_signal_sosfilt(first):
    # one _sosfilt module whichever import runs first, and the loop that
    # scipy.signal.sosfilt calls
    run_fresh(f"""
        import importlib
        importlib.import_module({first!r})
        import scipy.signal
        from scipy.signal import _signaltools, _sosfilt
        from stochgm import resp_spectrum
        assert resp_spectrum._sosfilt is _sosfilt._sosfilt
        assert resp_spectrum._sosfilt is _signaltools._sosfilt
    """)


@pytest.mark.parametrize("first", ["stochgm.gm_model", "scipy.optimize"])
def test_zeros_is_scipy_optimize_zeros(first):
    # one _zeros module whichever import runs first, and the loop that
    # scipy.optimize.brentq calls
    run_fresh(f"""
        import importlib
        importlib.import_module({first!r})
        import scipy.optimize
        from scipy.optimize import _zeros
        from stochgm import gm_model
        assert gm_model._zeros is _zeros
        assert scipy.optimize.brentq.__globals__["_zeros"] is _zeros
    """)


@pytest.mark.parametrize("first", ["stochgm.gm_model", "scipy.special"])
def test_special_ufuncs_is_scipy_special(first):
    # one _special_ufuncs module whichever import runs first, and the ufuncs
    # that scipy.special exports
    run_fresh(f"""
        import importlib
        import sys
        importlib.import_module({first!r})
        import scipy.special
        from stochgm import gm_model
        assert gm_model._special is sys.modules["scipy.special._special_ufuncs"]
        for name in ("gammainc", "gammaincinv", "gammaln"):
            assert getattr(gm_model, name) is getattr(scipy.special, name), name
    """)


@pytest.mark.parametrize("args,missing", [
    (("scipy.special", "_no_such_ext"), "scipy.special._no_such_ext"),
    (("scipy.special", "_special_ufuncs", "gammaln", "no_such_ufunc"),
     "scipy.special._special_ufuncs.no_such_ufunc"),
])
def test_load_extension_names_what_scipy_lacks(args, missing):
    # not a fallback: an ImportError naming the installed and checked scipy
    with pytest.raises(ImportError) as exc:
        _load_extension(*args)
    assert str(exc.value) == (f"{missing} not found in scipy {scipy.__version__}; "
                              "stochgm was checked only on scipy 1.17.1")


def test_public_names_resolve_lazily():
    run_fresh("""
        import importlib
        import sys
        import stochgm
        assert not [m for m in sys.modules if m.startswith("stochgm.")]
        listed = dir(stochgm)
        for name in stochgm.__all__:
            obj = getattr(stochgm, name)
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("stochgm."), (name, home)
            assert getattr(home, name) is obj, name
            assert name in listed, name
        try:
            stochgm.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute resolved")
    """)
