"""Ingestion of PEER AT2 accelerograms and line-oriented catalog manifests.

Records are parsed in g and converted once to m/s^2 when a catalog is
assembled, so every downstream computation works in SI units. GMParams,
the model parameters a manifest entry carries, lives here beside
PARAM_KEYS, its field order, so building it loads numpy alone.

Manifest format (documented here and in the README): entries are blocks of
``key = value`` lines separated by one or more blank lines. Lines starting
with ``#`` are comments. Required keys per entry: ``id``, ``path`` (AT2 file,
relative to the manifest location). Optional keys carry the fitted model
parameters: ``log_ai``, ``d595``, ``t_mid``, ``omega_mid``, ``omega_rate``,
``zeta_f``, ``t_total`` and an externally supplied ``fc_hz``.
"""

import logging
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

G_ACCEL = 9.80665  # standard gravity, m/s^2 per g

# "NPTS=   2000, DT=   .0100  SEC" style
_RE_NPTS_EQ = re.compile(r"NPTS\s*=\s*(\d+)\s*,?\s*DT\s*=\s*([0-9.Ee+-]+)", re.IGNORECASE)
# "  2000   0.0100  NPTS, DT" style
_RE_NPTS_TRAIL = re.compile(r"^\s*(\d+)\s+([0-9.Ee+-]+)\s+NPTS\s*,?\s*DT", re.IGNORECASE)

# the model-parameter keys a manifest may carry, in GMParams field order; the
# one statement of that order (save_npz's params array, PARAM_LABELS)
PARAM_KEYS = ("log_ai", "d595", "t_mid", "omega_mid", "omega_rate",
              "zeta_f", "t_total", "fc_hz")


@dataclass(frozen=True)
class GMParams:
    """Seven model parameters plus total duration.

    log_ai is the natural log of Arias intensity in m/s; omega_mid and
    omega_rate define the linear filter-frequency law
    omega(t) = omega_mid + omega_rate * (t - t_mid); zeta_f is the constant
    filter bandwidth; fc_hz may be None while the corner frequency is still
    being fitted.
    """

    log_ai: float
    d595: float
    t_mid: float
    omega_mid: float
    omega_rate: float
    zeta_f: float
    t_total: float
    fc_hz: float | None = None

    def __post_init__(self):
        if self.d595 <= 0:
            raise ValueError("d595 must be > 0")
        if not 0 < self.t_mid < self.t_total:
            raise ValueError("need 0 < t_mid < t_total")
        if not 0 < self.zeta_f < 1:
            raise ValueError("zeta_f must be in (0, 1)")
        if self.fc_hz is not None and self.fc_hz < 0:
            raise ValueError("fc_hz must be >= 0")
        # linear law: positivity on [0, t_total] is decided at the endpoints
        if self.omega_at(0.0) <= 0 or self.omega_at(self.t_total) <= 0:
            raise ValueError("omega(t) must stay > 0 on [0, t_total]")

    def omega_at(self, t):
        return self.omega_mid + self.omega_rate * (np.asarray(t, dtype=float) - self.t_mid)

    @property
    def omega_max(self):
        return max(float(self.omega_at(0.0)), float(self.omega_at(self.t_total)))

    def with_fc(self, fc_hz):
        return replace(self, fc_hz=fc_hz)


@dataclass(frozen=True)
class AccelerogramRecord:
    """Uniformly sampled ground-acceleration series plus metadata.

    ``accel`` is in g as parsed from file, or in m/s^2 after catalog
    conversion; ``unit`` tracks which.
    """

    id: str
    dt: float
    accel: np.ndarray
    unit: str = "g"

    def __post_init__(self):
        accel = np.asarray(self.accel, dtype=float)
        object.__setattr__(self, "accel", accel)
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"record {self.id}: dt must be finite and > 0, got {self.dt}")
        if accel.size < 2:
            raise ValueError(f"record {self.id}: need at least 2 samples")
        if not np.all(np.isfinite(accel)):
            raise DataError(f"record {self.id}: non-finite acceleration values")

    @property
    def npts(self):
        return self.accel.size

    @property
    def duration(self):
        return (self.accel.size - 1) * self.dt

    def to_si(self):
        """Return a copy with acceleration in m/s^2."""
        if self.unit == "m/s2":
            return self
        return replace(self, accel=self.accel * G_ACCEL, unit="m/s2")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    path: str
    params: dict = field(default_factory=dict)  # subset of PARAM_KEYS


@dataclass(frozen=True)
class Catalog:
    """Loaded records (SI units), their manifest entries and AT2 paths."""

    records: tuple
    entries: tuple
    paths: tuple

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def record(self, rec_id):
        for r in self.records:
            if r.id == rec_id:
                return r
        raise KeyError(rec_id)

    def entry(self, rec_id):
        for e in self.entries:
            if e.id == rec_id:
                return e
        raise KeyError(rec_id)


def parse_at2(raw_text):
    """Parse the text of a PEER AT2 file into an AccelerogramRecord (in g).

    Accepts both common header spellings for the 4th line:
    ``NPTS=  n, DT= x SEC`` and ``n  x  NPTS, DT``.
    """
    lines = raw_text.splitlines()
    if len(lines) < 5:
        raise DataError("AT2 file has fewer than 5 lines")
    header = lines[3]
    m = _RE_NPTS_EQ.search(header) or _RE_NPTS_TRAIL.match(header)
    if m is None:
        raise DataError(f"cannot locate NPTS/DT in header line: {header!r}")
    npts = int(m.group(1))
    dt = float(m.group(2))

    values = list(map(float, " ".join(lines[4:]).split()))
    if len(values) != npts:
        raise DataError(f"header declares NPTS={npts} but body has {len(values)} values")
    accel = np.asarray(values, dtype=float)  # AccelerogramRecord rejects NaN/inf

    title = lines[0].strip()
    rec_id = title if title else "record"
    return AccelerogramRecord(id=rec_id, dt=dt, accel=accel, unit="g")


def write_at2(record):
    """Serialize a record to AT2 text in g: dt by repr, 7 significant digits, 5/line."""
    rec = record
    if rec.unit != "g":
        rec = replace(rec, accel=rec.accel / G_ACCEL, unit="g")
    header = [
        rec.id,
        "stochgm export",
        "ACCELERATION TIME SERIES IN UNITS OF G",
        f"NPTS= {rec.npts:6d}, DT= {float(rec.dt)!r}  SEC",
    ]
    # as "{v:15.7e}", but a negative 3-digit exponent cannot fuse values;
    # one % over the whole body, 5 values a line
    full, rest = divmod(rec.npts, 5)
    body = (" %14.7e" * 5 + "\n") * full + (" %14.7e" * rest + "\n" if rest else "")
    return "\n".join(header) + "\n" + body % tuple(rec.accel.tolist())


def parse_manifest(text):
    """Parse manifest text into a list of ManifestEntry (no file access)."""
    entries = []
    block = {}

    def flush():
        if not block:
            return
        if "id" not in block or "path" not in block:
            raise DataError(f"manifest entry missing id/path: {block}")
        # an id names the entry's output files, which stay inside --out
        rid = block["id"]
        if rid in ("", ".", "..") or any(c and c in rid for c in ("/", os.sep, os.altsep)):
            raise DataError(f"entry {rid!r}: id must be a plain file name")
        params = {}
        for k in PARAM_KEYS:
            if k in block:
                try:
                    params[k] = float(block[k])
                    if not np.isfinite(params[k]):
                        raise ValueError("not finite")
                except ValueError as exc:
                    raise DataError(
                        f"entry {block['id']}: bad value for {k}: {block[k]!r}") from exc
        entries.append(ManifestEntry(id=block["id"], path=block["path"], params=params))
        block.clear()

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"manifest line is not 'key = value': {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in block:
            raise DataError(f"entry {block.get('id')}: key {key!r} repeats "
                            "(a blank line missing between two entries?)")
        block[key] = val
    flush()

    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise DataError(f"duplicate entry ids in manifest: {dup}")
    return entries


def load_catalog(manifest_path):
    """Load a manifest and all referenced AT2 records, converted to SI."""
    try:
        with open(manifest_path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {manifest_path}: {exc}") from exc
    entries = parse_manifest(text)
    if not entries:
        log.warning("manifest %s contains no entries", manifest_path)
        return Catalog(records=(), entries=(), paths=())

    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = [os.path.join(base, entry.path) for entry in entries]
    records = []
    for entry, path in zip(entries, paths):
        if not os.path.exists(path):
            raise DataError(f"entry {entry.id}: file not found: {path}")
        try:
            with open(path) as fh:
                rec = parse_at2(fh.read())
        except (DataError, ValueError) as exc:  # ValueError: bad number, DT or NPTS
            raise DataError(f"entry {entry.id}: {exc}") from exc
        rec = replace(rec, id=entry.id)
        records.append(rec.to_si())
    return Catalog(records=tuple(records), entries=tuple(entries), paths=tuple(paths))
