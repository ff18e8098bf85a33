"""Loading, normalization, splitting, and synthesis of labeled ECG fragments.

A record is a 10 s single-lead fragment of 3,600 samples (360 Hz) plus one
rhythm-class label in 0..16. Two on-disk layouts are supported:

* ``csv``: 3,600 comma-separated floats followed by one integer label per line.
* ``raw-f32``: magic ``ALQD``, u32 record count, then per record 3,600
  little-endian f32 samples followed by one u8 label.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, EmptyDatasetError

log = logging.getLogger(__name__)

RECORD_SAMPLES = 3600
CLASS_COUNT = 17
SAMPLE_RATE_HZ = 360.0

RAW_MAGIC = b"ALQD"


@dataclass
class EcgRecord:
    """One signal fragment and its class label."""

    samples: np.ndarray
    label: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (RECORD_SAMPLES,):
            raise DataFormatError(
                f"expected {RECORD_SAMPLES} samples, got shape {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise DataFormatError("samples must be finite")
        if not 0 <= int(self.label) < CLASS_COUNT:
            raise DataFormatError(f"label {self.label} out of range")
        self.label = int(self.label)


@dataclass
class Dataset:
    """An ordered collection of records."""

    records: list[EcgRecord]
    class_count: int = CLASS_COUNT

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def sample_matrix(self) -> np.ndarray:
        """All signals stacked into an (n_records, 3600) float64 matrix."""
        if not self.records:
            return np.zeros((0, RECORD_SAMPLES))
        return np.stack([r.samples for r in self.records])


@dataclass
class SplitSpec:
    """Train/test split parameters."""

    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataFormatError("train_fraction must be in (0, 1)")


def load_dataset(path, format: str = "csv") -> Dataset:
    """Read a dataset file; raises on malformed records, naming the index."""
    path = Path(path)
    if format == "csv":
        records = _load_csv(path)
    elif format == "raw-f32":
        records = _load_raw_f32(path)
    else:
        raise DataFormatError(f"unknown dataset format {format!r}")
    if not records:
        raise EmptyDatasetError(f"{path}: no records")
    return Dataset(records)


def save_dataset(path, dataset: Dataset, format: str = "csv") -> None:
    path = Path(path)
    if format == "csv":
        with open(path, "w") as fh:
            for rec in dataset.records:
                row = ",".join(repr(float(v)) for v in rec.samples)
                fh.write(f"{row},{rec.label}\n")
    elif format == "raw-f32":
        with open(path, "wb") as fh:
            fh.write(RAW_MAGIC)
            fh.write(struct.pack("<I", len(dataset)))
            for rec in dataset.records:
                fh.write(rec.samples.astype("<f4").tobytes())
                fh.write(struct.pack("B", rec.label))
    else:
        raise DataFormatError(f"unknown dataset format {format!r}")


def _parse_record(i: int, values: list[str]) -> EcgRecord:
    if len(values) - 1 != RECORD_SAMPLES:
        raise DataFormatError(f"record {i}: expected {RECORD_SAMPLES} samples")
    try:
        samples = np.array(values[:-1], dtype=np.float64)
    except ValueError:
        raise DataFormatError(f"record {i}: non-numeric sample") from None
    if not np.all(np.isfinite(samples)):
        raise DataFormatError(f"record {i}: non-finite sample")
    try:
        label = int(values[-1].strip())
    except ValueError:
        raise DataFormatError(f"record {i}: non-numeric label") from None
    if not 0 <= label < CLASS_COUNT:
        raise DataFormatError(f"record {i}: label out of range")
    return EcgRecord(samples, label)


def _load_csv(path: Path) -> list[EcgRecord]:
    records = []
    with open(path) as fh:
        for i, line in enumerate(ln for ln in fh if ln.strip()):
            records.append(_parse_record(i, line.strip().split(",")))
    return records


def _load_raw_f32(path: Path) -> list[EcgRecord]:
    data = Path(path).read_bytes()
    if data[:4] != RAW_MAGIC:
        raise DataFormatError(f"{path}: not a raw-f32 dataset (bad magic)", 0)
    if len(data) < 8:
        raise DataFormatError(f"{path}: truncated record count", 4)
    (count,) = struct.unpack_from("<I", data, 4)
    rec_bytes = RECORD_SAMPLES * 4 + 1
    records = []
    off = 8
    for i in range(count):
        if off + rec_bytes > len(data):
            raise DataFormatError(f"record {i}: truncated", off)
        samples = np.frombuffer(data, dtype="<f4", count=RECORD_SAMPLES, offset=off)
        # checked on the f32 values: the f64 cast warns on a signalling NaN
        finite = np.isfinite(samples)
        if not finite.all():
            at = off + 4 * int(finite.argmin())
            raise DataFormatError(f"record {i}: non-finite sample", at)
        label = data[off + rec_bytes - 1]
        if label >= CLASS_COUNT:
            raise DataFormatError(f"record {i}: label out of range", off + rec_bytes - 1)
        records.append(EcgRecord(samples.astype(np.float64), int(label)))
        off += rec_bytes
    if off != len(data):
        raise DataFormatError(f"{path}: {len(data) - off} trailing bytes", off)
    return records


def normalize(record: EcgRecord) -> EcgRecord:
    """Per-record z-score (population std). Constant signals map to all zeros."""
    return _zscore(record, record.samples.std())


def _zscore(record: EcgRecord, sd: float) -> EcgRecord:
    if sd == 0.0:
        return EcgRecord(np.zeros_like(record.samples), record.label)
    return EcgRecord((record.samples - record.samples.mean()) / sd, record.label)


def normalize_dataset(dataset: Dataset) -> tuple[Dataset, int]:
    """Normalize every record; returns the dataset and a flatline-warning count."""
    out = []
    flat = 0
    for rec in dataset.records:
        sd = rec.samples.std()
        if sd == 0.0:
            flat += 1
        out.append(_zscore(rec, sd))
    if flat:
        log.warning("%d constant record(s) normalized to all zeros", flat)
    return Dataset(out, dataset.class_count), flat


def _train_quota(fraction: float, n: int) -> int:
    # round half up, deterministic across platforms
    return int(np.floor(fraction * n + 0.5))


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition records into disjoint train/test sets.

    The train side holds round(train_fraction * n) records. Stratified mode
    keeps per-class proportions within one record of the global fraction;
    classes with fewer than two records go entirely to train (with a warning).
    Identical seeds produce identical splits.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    rng = np.random.default_rng(spec.seed)
    n_train = _train_quota(spec.train_fraction, n)

    if not spec.stratified:
        perm = rng.permutation(n)
        train_idx = set(perm[:n_train].tolist())
    else:
        by_class: dict[int, list[int]] = {}
        for i, rec in enumerate(dataset.records):
            by_class.setdefault(rec.label, []).append(i)
        forced = {c for c, idx in by_class.items() if len(idx) < 2}
        if forced:
            log.warning(
                "classes with <2 records kept entirely in train: %s", sorted(forced)
            )
        train_idx = set()
        for c in sorted(forced):
            train_idx.update(by_class[c])
        rest = [c for c in sorted(by_class) if c not in forced]
        remaining = max(0, n_train - len(train_idx))
        quotas = {c: int(np.floor(spec.train_fraction * len(by_class[c]))) for c in rest}
        remainders = sorted(
            rest,
            key=lambda c: (-(spec.train_fraction * len(by_class[c]) - quotas[c]), c),
        )
        short = remaining - sum(quotas.values())
        for c in remainders:
            if short <= 0:
                break
            if quotas[c] < len(by_class[c]):
                quotas[c] += 1
                short -= 1
        for c in rest:
            idx = np.array(by_class[c])
            perm = idx[rng.permutation(len(idx))]
            train_idx.update(perm[: quotas[c]].tolist())

    train = [dataset.records[i] for i in range(n) if i in train_idx]
    test = [dataset.records[i] for i in range(n) if i not in train_idx]
    return Dataset(train, dataset.class_count), Dataset(test, dataset.class_count)


def class_template(label: int, length: int = RECORD_SAMPLES) -> np.ndarray:
    """Deterministic per-class waveform: sinusoid mixture plus a pulse train.

    Each class gets a distinct fundamental frequency, phase, pulse period and
    pulse amplitude, so any two class templates differ over a wide sample range.
    """
    if not 0 <= label < CLASS_COUNT:
        raise DataFormatError(f"label {label} out of range")
    t = np.arange(length) / SAMPLE_RATE_HZ
    freq = 0.8 + 0.45 * label
    phase = 2.0 * np.pi * ((0.37 * label) % 1.0)
    wave = np.sin(2.0 * np.pi * freq * t + phase)
    wave += 0.5 * np.sin(2.0 * np.pi * (2.3 * freq) * t)
    period = 90 + 23 * label
    width = 12 + 3 * (label % 5)
    pulse = (np.arange(length) % period) < width
    return wave + (1.5 + 0.1 * label) * pulse


def synth_generate(n_per_class: int, seed: int, noise_sigma: float = 0.0) -> Dataset:
    """Build 17 * n_per_class records from the class templates.

    With ``noise_sigma == 0`` the output is a pure function of ``n_per_class``
    (every copy of a class is the template itself, independent of seed).
    """
    if n_per_class < 1:
        raise DataFormatError("n_per_class must be >= 1")
    if noise_sigma < 0:
        raise DataFormatError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    records = []
    for c in range(CLASS_COUNT):
        base = class_template(c)
        for _ in range(n_per_class):
            if noise_sigma > 0:
                samples = base + rng.normal(0.0, noise_sigma, size=base.shape)
            else:
                samples = base.copy()
            records.append(EcgRecord(samples, c))
    return Dataset(records)
