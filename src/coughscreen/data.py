"""Subjects, recordings, clinical records, manifests, and the feature scaler.

The grouping unit throughout is the cougher (study participant). A cougher
carries one binary TB label, one clinical record with the 16 demographic
and symptom variables, and at least one cough recording.

``ClinicalRecord`` is the one statement of the clinical columns: their
names, their order, and their kind. A field annotated ``int`` is a 0/1
indicator; a ``float`` field is a real measurement.

Manifest format (CSV, UTF-8, header row): recording_id, cougher_id,
tb_label, wav_path, then the 16 clinical columns in ``ClinicalRecord``
field order (``CLINICAL_FIELDS``). wav_path is resolved against the audio
root. Clinical values must all be present; a missing cell is a hard error.

``check_object`` checks every config object against its rule table and raises
``ConfigError``, the config error that sits beside ``ManifestError``.
"""

from __future__ import annotations

import csv
import logging
import numbers
import sys
import wave
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dsp

log = logging.getLogger(__name__)

# Plausible physiological ranges, checked as warnings only.
_RANGES = {
    "age": (0, 120),
    "height": (50, 250),
    "weight": (20, 300),
    "cough_duration": (0, 3650),
    "heart_rate": (20, 250),
    "temperature": (30, 45),
}


class ManifestError(ValueError):
    """Raised for malformed manifests, inconsistent rows, undecodable audio, or a
    cohort too small for the fold plan."""


class ConfigError(ValueError):
    """Invalid experiment or synthetic-generator configuration."""


def _is_real(v) -> bool:
    """A number that ``float()`` makes finite: NaN fails both comparisons, and an
    int is compared exactly, so one beyond the float range fails; a bool is not one."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and _is_real(v)


def _int_at_least(low: int) -> tuple:
    return (lambda v: _is_int(v) and v >= low, f"an integer >= {low}")


def check_object(rules: dict, doc, where: str = "", required=()) -> None:
    """Raise ``ConfigError``, naming ``where``, unless ``doc`` is an object with a rule for
    every key, every ``required`` key, and every value passing its (check, want) rule."""
    prefix = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - set(rules)
    if unknown:
        raise ConfigError(f"{prefix}unknown keys {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"{prefix}missing keys {sorted(missing)}")
    for key, value in doc.items():
        check, want = rules[key]
        if not check(value):
            raise ConfigError(f"{prefix}{key} must be {want}, got {value!r}")


def read_csv_rows(path, columns: list, what: str):
    """Yield (line number, row dict) for every row of the CSV at ``path``.

    Raise ``ManifestError``, naming ``what``, the file and the line, for a header
    that lacks one of ``columns``, a row with more or fewer cells than the header,
    bytes that are not UTF-8, or a cell the csv module refuses (one longer than its
    field size limit). Undecodable bytes are read as surrogate escapes, so the row
    that holds them is found exactly.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            if not _is_utf8(header):
                raise ManifestError(f"{what} {path} line 1: the header is not UTF-8 text")
            missing = [c for c in columns if c not in header]
            if missing:
                raise ManifestError(f"{what} {path} is missing columns: {missing}")
            for row in reader:
                if None in row or None in row.values():
                    raise ManifestError(f"{what} {path} line {reader.line_num}: the row does "
                                        f"not have the header's {len(header)} cells")
                if not _is_utf8(row.values()):
                    raise ManifestError(f"{what} {path} line {reader.line_num}: the row is "
                                        "not UTF-8 text")
                yield reader.line_num, row
        except csv.Error as exc:  # the DictReader's own line_num stops at the last good row
            raise ManifestError(f"{what} {path} line {reader.reader.line_num}: {exc}") from exc


def _is_utf8(cells) -> bool:
    """Whether ``cells``, decoded with surrogate escapes, held only UTF-8 text."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class ClinicalRecord:
    age: float
    sex: int
    height: float
    weight: float
    cough_duration: float
    prior_tb: int
    prior_tb_pulmonary: int
    prior_tb_extrapulmonary: int
    prior_tb_unknown: int
    hemoptysis: int
    heart_rate: float
    temperature: float
    smoked_last_week: int
    fever: int
    night_sweats: int
    weight_loss: int

    def __post_init__(self):
        for name in BINARY_CLINICAL_FIELDS:
            v = getattr(self, name)
            if v not in (0, 1):
                raise ValueError(f"clinical field {name} must be 0/1, got {v!r}")
        for name, (lo, hi) in _RANGES.items():
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"clinical field {name} is not finite")
            if not lo <= v <= hi:
                log.warning("clinical field %s=%s outside plausible range [%s, %s]",
                            name, v, lo, hi)

    def to_vector(self) -> np.ndarray:
        """Encode as 16 reals in ``CLINICAL_FIELDS`` order (binaries as 0/1)."""
        return np.array([float(getattr(self, f)) for f in CLINICAL_FIELDS])


CLINICAL_FIELDS = [f.name for f in fields(ClinicalRecord)]
# the annotations are strings under ``from __future__ import annotations``
BINARY_CLINICAL_FIELDS = frozenset(f.name for f in fields(ClinicalRecord) if f.type == "int")
MANIFEST_COLUMNS = ["recording_id", "cougher_id", "tb_label", "wav_path"] + CLINICAL_FIELDS


@dataclass(frozen=True)
class CoughRecording:
    """One cough: its waveform in memory, or the WAV file it is decoded from on use."""

    id: str
    cougher_id: str
    waveform: dsp.Waveform | None = None
    wav_path: Path | None = None

    def __post_init__(self):
        if (self.waveform is None) == (self.wav_path is None):
            raise ValueError(f"recording {self.id} needs exactly one of a waveform "
                             f"and a WAV path")

    def audio(self) -> dsp.Waveform:
        """The waveform; a WAV file is decoded and resampled to 16 kHz on each call.

        A file that is not a mono 16-bit PCM WAV with at least one sample, or
        whose rate is below 16 kHz or above 384 kHz, raises ``ManifestError`` naming it.
        """
        if self.waveform is not None:
            return self.waveform
        try:
            return dsp.resample(dsp.read_wav(self.wav_path))
        except (wave.Error, EOFError, ValueError) as exc:
            raise ManifestError(f"cannot decode audio file {self.wav_path}: {exc}") from exc


@dataclass(frozen=True)
class Cougher:
    id: str
    tb_label: int
    clinical: ClinicalRecord
    recordings: tuple

    def __post_init__(self):
        if self.tb_label not in (0, 1):
            raise ValueError(f"tb_label must be 0/1, got {self.tb_label!r}")
        if len(self.recordings) == 0:
            raise ValueError(f"cougher {self.id} has no recordings")
        for rec in self.recordings:
            if rec.cougher_id != self.id:
                raise ValueError(f"recording {rec.id} references cougher "
                                 f"{rec.cougher_id}, not {self.id}")


def _parse_row(row: dict, line_no: int) -> dict:
    for col in MANIFEST_COLUMNS:
        if not row[col]:
            raise ManifestError(f"manifest line {line_no}: missing value for {col!r}")
    out = {"recording_id": row["recording_id"], "cougher_id": row["cougher_id"],
           "wav_path": row["wav_path"]}
    try:
        out["tb_label"] = int(row["tb_label"])
        clinical = {}
        for name in CLINICAL_FIELDS:
            clinical[name] = (int(row[name]) if name in BINARY_CLINICAL_FIELDS
                              else float(row[name]))
        out["clinical"] = ClinicalRecord(**clinical)
    except (ValueError, TypeError) as exc:
        raise ManifestError(f"manifest line {line_no}: {exc}") from exc
    if out["tb_label"] not in (0, 1):
        raise ManifestError(f"manifest line {line_no}: tb_label must be 0/1")
    return out


def load_manifest(manifest_path, audio_root=None) -> list:
    """Assemble coughers from a manifest CSV, validating every row.

    Every referenced WAV must exist; it is decoded only when the recording's
    audio is read (``CoughRecording.audio``), so loading holds no waveform.
    Recording ids are unique across the whole manifest, and rows sharing a
    cougher_id must agree on the label and clinical values.
    Coughers and their recordings are returned sorted by id, so results never
    depend on manifest row order.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ManifestError(f"manifest not found: {manifest_path}")
    root = Path(audio_root) if audio_root is not None else manifest_path.parent

    rows = [_parse_row(row, line_no)
            for line_no, row in read_csv_rows(manifest_path, MANIFEST_COLUMNS, "manifest")]
    if not rows:
        raise ManifestError("manifest has no data rows")
    counts = Counter(r["recording_id"] for r in rows)
    duplicates = sorted(rid for rid, n in counts.items() if n > 1)
    if duplicates:
        raise ManifestError(f"duplicate recording_id {duplicates[0]!r}")

    by_cougher: dict = {}
    for row in rows:
        by_cougher.setdefault(row["cougher_id"], []).append(row)

    coughers = []
    for cid in sorted(by_cougher):
        group = by_cougher[cid]
        labels = {r["tb_label"] for r in group}
        if len(labels) > 1:
            raise ManifestError(f"cougher {cid} has conflicting tb_label values")
        clinicals = {r["clinical"] for r in group}
        if len(clinicals) > 1:
            raise ManifestError(f"cougher {cid} has conflicting clinical values")
        recordings = []
        for r in sorted(group, key=lambda r: r["recording_id"]):
            wav_path = root / r["wav_path"]
            if not wav_path.exists():
                raise ManifestError(f"audio file not found: {wav_path}")
            recordings.append(CoughRecording(r["recording_id"], cid, wav_path=wav_path))
        coughers.append(Cougher(cid, group[0]["tb_label"], group[0]["clinical"],
                                tuple(recordings)))
    log.info("loaded %d coughers, %d recordings, %d TB+",
             len(coughers), sum(len(c.recordings) for c in coughers),
             sum(c.tb_label for c in coughers))
    return coughers


def write_manifest(coughers, manifest_path, wav_paths: dict) -> None:
    """Write a manifest for ``coughers``; ``wav_paths`` maps recording id -> path string."""
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for c in coughers:
            clin = [getattr(c.clinical, f) for f in CLINICAL_FIELDS]
            for rec in c.recordings:
                writer.writerow([rec.id, c.id, c.tb_label, wav_paths[rec.id]] + clin)


@dataclass
class StandardScaler:
    """Column-wise z-scoring with parameters frozen at fit time.

    The population std (N denominator) is used. A constant column gets
    mean 0 and std 1, so it passes through unchanged.
    """

    means: np.ndarray
    stds: np.ndarray

    @property
    def n_features(self) -> int:
        return self.means.size


def fit_scaler(X) -> StandardScaler:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("scaler needs a nonempty 2-D matrix")
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    passthrough = stds < 1e-12
    if np.any(passthrough):
        log.debug("scaler: %d constant column(s) passed through unscaled",
                  int(np.sum(passthrough)))
    means = np.where(passthrough, 0.0, means)
    stds = np.where(passthrough, 1.0, stds)
    return StandardScaler(means, stds)


def apply_scaler(scaler: StandardScaler, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != scaler.n_features:
        raise ValueError(f"scaler fitted on {scaler.n_features} features, "
                         f"cannot apply to shape {X.shape}")
    return (X - scaler.means) / scaler.stds

