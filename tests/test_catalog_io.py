import numpy as np
import pytest

from stochgm import catalog_io
from stochgm.catalog_io import (AccelerogramRecord, load_catalog, parse_at2,
                                parse_manifest, write_at2)
from stochgm.errors import DataError


def make_at2(values, npts=None, dt=0.01, header="NPTS={n:7d}, DT= {dt:9.4f}  SEC"):
    npts = len(values) if npts is None else npts
    lines = ["Fixture record", "source line", "units line",
             header.format(n=npts, dt=dt)]
    vals = [f"{v:15.7e}" for v in values]
    for i in range(0, len(vals), 5):
        lines.append("".join(vals[i:i + 5]))
    return "\n".join(lines) + "\n"


def test_parse_at2_eq_header():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(2000) * 0.1
    rec = parse_at2(make_at2(vals, dt=0.01))
    assert rec.npts == 2000
    assert rec.dt == 0.01
    np.testing.assert_allclose(rec.accel, vals, rtol=1e-6)


def test_parse_at2_trailing_header():
    vals = [0.1, -0.2, 0.05, 0.0, 0.3]
    text = make_at2(vals, header="   {n}  {dt}  NPTS, DT")
    rec = parse_at2(text)
    assert rec.npts == 5
    assert rec.dt == 0.01


def test_parse_at2_count_mismatch():
    text = make_at2([0.1] * 9, npts=10)
    with pytest.raises(DataError, match="declares NPTS=10 but body has 9 values"):
        parse_at2(text)


def test_parse_at2_malformed_header():
    text = make_at2([0.1, 0.2], header="nothing useful here")
    with pytest.raises(DataError, match="cannot locate NPTS/DT"):
        parse_at2(text)


def test_parse_at2_nonfinite():
    text = make_at2([0.1, float("nan"), 0.2])
    with pytest.raises(DataError, match="non-finite acceleration values"):
        parse_at2(text)


def test_round_trip_identity():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(137) * 0.2
    rec = parse_at2(make_at2(vals))
    rec2 = parse_at2(write_at2(rec))
    # 7 significant digits survive the round trip exactly
    np.testing.assert_array_equal(rec2.accel, rec.accel)
    assert rec2.dt == rec.dt


def test_write_at2_text_as_numpy_formats_it():
    # write_at2 formats Python floats; the text is what formatting each
    # numpy float64 gives, 3-digit exponents and subnormals included
    vals = np.array([0.0, -0.0, 1.5e-300, -2.5e-305, 5e-324, -1e-310,
                     2.2250738585072014e-308, -1.2345678e-5, 9.87654321,
                     -123456.789, 1e-100, 7.1e-200])
    lines = write_at2(AccelerogramRecord(id="r", dt=0.01, accel=vals)).splitlines()
    cells = [f" {v:14.7e}" for v in vals]
    assert lines[4:] == ["".join(cells[i:i + 5]) for i in range(0, vals.size, 5)]
    assert lines[4].endswith(" 1.5000000e-300 -2.5000000e-305 4.9406565e-324")
    np.testing.assert_array_equal(parse_at2("\n".join(lines)).accel,
                                  [float(c) for c in cells])


def per_value_at2(rec):
    """write_at2's text built one value at a time, the reference for its
    one-% body."""
    cells = [f" {v:14.7e}" for v in rec.accel.tolist()]
    return "\n".join([rec.id, "stochgm export", "ACCELERATION TIME SERIES IN UNITS OF G",
                      f"NPTS= {rec.npts:6d}, DT= {float(rec.dt)!r}  SEC"]
                     + ["".join(cells[i:i + 5]) for i in range(0, len(cells), 5)]) + "\n"


@pytest.mark.parametrize("npts", [2, 4, 5, 6, 10, 11])
def test_write_at2_equals_per_value_formatting(npts):
    vals = np.random.default_rng(npts).standard_normal(npts) * 10.0 ** np.arange(npts)
    vals[::3] *= -1
    vals[1] = -1e-120
    rec = AccelerogramRecord(id="r", dt=0.005, accel=vals)
    assert write_at2(rec) == per_value_at2(rec)


def test_parse_at2_lines_without_leading_blanks():
    text = "r\nsource\nunits\nNPTS= 5, DT= 0.01 SEC\n0.1 -0.2\n3e-5\n-4.0E+00 0.5\n"
    np.testing.assert_array_equal(parse_at2(text).accel, [0.1, -0.2, 3e-5, -4.0, 0.5])


def test_record_validation():
    with pytest.raises(ValueError):
        AccelerogramRecord(id="x", dt=-0.01, accel=[0.1, 0.2])
    with pytest.raises(ValueError):
        AccelerogramRecord(id="x", dt=0.01, accel=[0.1])


def test_to_si():
    rec = AccelerogramRecord(id="x", dt=0.01, accel=[0.1, 0.2], unit="g")
    si = rec.to_si()
    np.testing.assert_allclose(si.accel, [0.980665, 1.96133])
    assert si.unit == "m/s2"
    assert si.to_si() is si


MANIFEST = """
# comment
id = rec_a
path = rec_a.AT2
omega_mid = 15.0
omega_rate = -0.1
zeta_f = 0.3
fc_hz = 0.4

id = rec_b
path = rec_b.AT2
"""


def test_parse_manifest():
    entries = parse_manifest(MANIFEST)
    assert [e.id for e in entries] == ["rec_a", "rec_b"]
    assert entries[0].params["fc_hz"] == 0.4
    assert entries[1].params == {}


def test_manifest_duplicate_ids():
    with pytest.raises(DataError, match="duplicate entry ids"):
        parse_manifest("id = a\npath = p\n\nid = a\npath = q\n")


def test_manifest_key_repeats_within_an_entry():
    # without the blank line, entry a's keys would merge into entry b's
    with pytest.raises(DataError, match="entry a: key 'id' repeats"):
        parse_manifest("id = a\npath = a.AT2\nfc_hz = 0.3\nid = b\npath = b.AT2\n")


@pytest.mark.parametrize("rec_id", ["", ".", "..", "../escaped", "a/b", "/abs"])
def test_manifest_id_must_be_a_file_name(rec_id):
    # an id names output files, so it must not reach outside --out
    with pytest.raises(DataError, match="id must be a plain file name"):
        parse_manifest(f"id = ok\npath = p\n\nid = {rec_id}\npath = q\n")


def test_load_catalog(tmp_path):
    rng = np.random.default_rng(1)
    for name in ("rec_a", "rec_b"):
        (tmp_path / f"{name}.AT2").write_text(
            make_at2(rng.standard_normal(50) * 0.1))
    (tmp_path / "m.txt").write_text(MANIFEST)
    cat = load_catalog(tmp_path / "m.txt")
    assert len(cat) == 2
    assert cat.record("rec_a").unit == "m/s2"
    assert cat.entry("rec_a").params["omega_mid"] == 15.0


def test_load_catalog_reads_a_byte_order_mark(tmp_path):
    (tmp_path / "rec_a.AT2").write_text(make_at2(np.ones(50) * 0.1))
    (tmp_path / "m.txt").write_bytes(b"\xef\xbb\xbfid = rec_a\npath = rec_a.AT2\n")
    assert [e.id for e in load_catalog(tmp_path / "m.txt").entries] == ["rec_a"]


def test_load_catalog_missing_file(tmp_path):
    (tmp_path / "m.txt").write_text("id = ghost\npath = nowhere.AT2\n")
    with pytest.raises(DataError, match="entry ghost: file not found"):
        load_catalog(tmp_path / "m.txt")


def test_load_catalog_empty_warns(tmp_path, caplog):
    (tmp_path / "m.txt").write_text("# nothing\n")
    with caplog.at_level("WARNING", logger=catalog_io.__name__):
        cat = load_catalog(tmp_path / "m.txt")
    assert len(cat) == 0
    assert any("no entries" in r.message for r in caplog.records)
