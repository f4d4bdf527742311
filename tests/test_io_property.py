"""Property tests of the input parsers: AT2 and manifest text round trips."""

import numpy as np
import pytest

from stochgm.catalog_io import (PARAM_KEYS, AccelerogramRecord, parse_at2,
                                parse_manifest, write_at2)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

NAMES = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-",
                min_size=1, max_size=12)


# write_at2 prints dt as its shortest round-trip repr and samples with 8
# significant digits; the examples are steps that 5 decimals rewrote
@settings(max_examples=50)
@given(rec_id=NAMES, dt=st.floats(0.0, exclude_min=True, allow_infinity=False),
       accel=st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                      min_size=2, max_size=300),
       unit=st.sampled_from(["g", "m/s2"]))
@example(rec_id="r", dt=1 / 256, accel=[0.1, -0.2], unit="g")
@example(rec_id="r", dt=0.000125, accel=[0.1, -0.2], unit="g")
@example(rec_id="r", dt=2.5e-6, accel=[0.1, -0.2], unit="g")
def test_at2_round_trip(rec_id, dt, accel, unit):
    rec = AccelerogramRecord(id=rec_id, dt=dt, accel=accel, unit=unit)
    back = parse_at2(write_at2(rec))
    assert (back.id, back.dt, back.npts, back.unit) == (rec.id, rec.dt, rec.npts, "g")
    np.testing.assert_allclose(back.to_si().accel, rec.to_si().accel,
                               rtol=1e-7, atol=0.0)


# parse_manifest refuses "." and "..", which name no file inside --out
IDS = NAMES.filter(lambda s: s not in (".", ".."))
ENTRY = st.tuples(IDS, NAMES.map(lambda s: f"records/{s}.AT2"),
                  st.dictionaries(st.sampled_from(PARAM_KEYS),
                                  st.floats(allow_nan=False, allow_infinity=False)))


@settings(max_examples=50)
@given(entries=st.lists(ENTRY, max_size=6, unique_by=lambda e: e[0]),
       gaps=st.lists(st.sampled_from(["\n", "\n\n", "\n# comment\n", "\n\n\n"]),
                     min_size=6, max_size=6))
def test_manifest_round_trip(entries, gaps):
    blocks = []
    for rec_id, path, params in entries:
        lines = [f"id = {rec_id}", f"path = {path}"]
        lines += [f"{k} = {v!r}" for k, v in params.items()]
        blocks.append("\n".join(lines))
    text = "".join(f"{block}\n{gap}" for block, gap in zip(blocks, gaps))
    parsed = parse_manifest(text)
    assert [(e.id, e.path, e.params) for e in parsed] == entries
