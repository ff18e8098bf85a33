"""Loading, normalization, splitting, and synthesis of labeled ECG fragments.

A dataset is one (n, L) float64 sample matrix, a row per record, and one
vector of the n rhythm-class labels in 0..16. The file formats fix L at
3,600 samples (10 s at 360 Hz); ``Dataset`` itself takes any L, so toy
networks can run on short signals. Two on-disk layouts are supported:

* ``csv``: 3,600 comma-separated floats followed by one integer label per line.
* ``raw-f32``: magic ``ALQD``, u32 record count, then per record 3,600
  little-endian f32 samples followed by one u8 label.

Every check reports the first faulty record, and within a record a sample
fault (count, parse, non-finite) before a label fault. Raw-f32 rejections
also give the fault's byte offset. Each writer makes its loader's check, on
the raw-f32 writer's f32 values too, so it refuses a label the formats do
not hold or a sample beyond the f32 range rather than write a file that
does not load.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, EmptyDatasetError

log = logging.getLogger(__name__)

RECORD_SAMPLES = 3600
CLASS_COUNT = 17
SAMPLE_RATE_HZ = 360.0

RAW_MAGIC = b"ALQD"
# one raw-f32 record, packed: 14,401 bytes
RAW_RECORD = np.dtype([("samples", "<f4", (RECORD_SAMPLES,)), ("label", "u1")])


def _first_fault(samples: np.ndarray, labels: np.ndarray, class_count: int):
    """(record, sample) of the first record with a non-finite sample or a
    label outside 0..class_count-1: ``sample`` indexes its first non-finite
    sample, or is None if only the label is at fault. None if no record is."""
    # a NaN or an infinity shows in its row's max or min, so the check makes
    # no (n, L) mask
    finite = (np.isfinite(samples.max(axis=1, initial=0.0))
              & np.isfinite(samples.min(axis=1, initial=0.0)))
    bad = ~finite | (labels < 0) | (labels >= class_count)
    if not bad.any():
        return None
    i = int(bad.argmax())
    return i, None if finite[i] else int(np.isfinite(samples[i]).argmin())


def _fault_message(record: int, sample: int | None) -> str:
    return f"record {record}: " + ("label out of range" if sample is None else "non-finite sample")


class Dataset:
    """Labeled records: ``records`` is a C-contiguous (n, L) float64 matrix,
    one row per record, and ``labels()`` the n int64 class labels.

    Raises DataFormatError for a matrix that is not 2-D, a label count other
    than n, or, naming the first such record, a non-finite sample or a label
    outside 0..class_count-1.
    """

    def __init__(self, records, labels, class_count: int = CLASS_COUNT):
        self.records = np.ascontiguousarray(records, dtype=np.float64)
        self._labels = np.asarray(labels, dtype=np.int64)
        self.class_count = class_count
        if self.records.ndim != 2:
            raise DataFormatError(
                f"records must be an (n, samples) matrix, got shape {self.records.shape}")
        if self._labels.shape != (len(self.records),):
            raise DataFormatError(
                f"labels of shape {self._labels.shape} for {len(self.records)} records")
        fault = _first_fault(self.records, self._labels, class_count)
        if fault is not None:
            raise DataFormatError(_fault_message(*fault))

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        return self._labels


@dataclass
class SplitSpec:
    """Stratified train/test split parameters."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataFormatError("train_fraction must be in (0, 1)")


def load_dataset(path, format: str = "csv") -> Dataset:
    """Read a dataset file; raises on its first malformed record, naming it."""
    path = Path(path)
    if format == "csv":
        dataset = _load_csv(path)
    elif format == "raw-f32":
        dataset = _load_raw_f32(path)
    else:
        raise DataFormatError(f"unknown dataset format {format!r}")
    if not len(dataset):
        raise EmptyDatasetError(f"{path}: no records")
    return dataset


def save_dataset(path, dataset: Dataset, format: str = "csv") -> None:
    path = Path(path)
    if dataset.records.shape[1] != RECORD_SAMPLES:
        raise DataFormatError(f"records of {dataset.records.shape[1]} samples, "
                              f"the file formats hold {RECORD_SAMPLES}")
    if format == "csv":
        bad = dataset.labels() >= CLASS_COUNT  # the loader's label check
        if bad.any():
            raise DataFormatError(f"record {int(bad.argmax())}: label out of range")
        with open(path, "w") as fh:
            for row, label in zip(dataset.records, dataset.labels().tolist()):
                fh.write(",".join(map(repr, row.tolist())) + f",{label}\n")
    elif format == "raw-f32":
        raw = np.empty(len(dataset), RAW_RECORD)
        with np.errstate(over="ignore"):  # a sample cast to inf is rejected below
            raw["samples"], raw["label"] = dataset.records, dataset.labels()
        # the loader's own check, so no file is written that it rejects
        fault = _first_fault(raw["samples"], dataset.labels(), CLASS_COUNT)
        if fault is not None:
            record, sample = fault
            raise DataFormatError(f"record {record}: " + (
                "label out of range" if sample is None else "sample beyond the float32 range"))
        path.write_bytes(RAW_MAGIC + struct.pack("<I", len(dataset)) + raw.tobytes())
    else:
        raise DataFormatError(f"unknown dataset format {format!r}")


def _parse_record(i: int, values: list[bytes]) -> tuple[np.ndarray, int]:
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
    return samples, label


def _load_csv(path: Path) -> Dataset:
    # a first pass counts the records, so that each parsed line goes
    # straight into its row and the file never holds two matrices; bytes,
    # so that a byte that is not text fails as a bad field, not a decode
    with open(path, "rb") as fh:
        n = sum(1 for ln in fh if ln.strip())
        fh.seek(0)
        samples, labels = np.empty((n, RECORD_SAMPLES)), np.empty(n, dtype=np.int64)
        for i, line in enumerate(ln for ln in fh if ln.strip()):
            samples[i], labels[i] = _parse_record(i, line.strip().split(b","))
    return Dataset(samples, labels)


def _load_raw_f32(path: Path) -> Dataset:
    data = Path(path).read_bytes()
    if data[:4] != RAW_MAGIC:
        raise DataFormatError(f"{path}: not a raw-f32 dataset (bad magic)", 0)
    if len(data) < 8:
        raise DataFormatError(f"{path}: truncated record count", 4)
    (count,) = struct.unpack_from("<I", data, 4)
    size = RAW_RECORD.itemsize
    whole = min(count, (len(data) - 8) // size)
    raw = np.frombuffer(data, RAW_RECORD, count=whole, offset=8)
    # checked on the f32 values: the f64 cast warns on a signalling NaN
    fault = _first_fault(raw["samples"], raw["label"], CLASS_COUNT)
    if fault is not None:
        record, sample = fault
        at = 8 + record * size + (size - 1 if sample is None else 4 * sample)
        raise DataFormatError(_fault_message(*fault), at)
    if whole < count:
        raise DataFormatError(f"record {whole}: truncated", 8 + whole * size)
    end = 8 + count * size
    if end != len(data):
        raise DataFormatError(f"{path}: {len(data) - end} trailing bytes", end)
    return Dataset(raw["samples"], raw["label"])


def normalize_dataset(dataset: Dataset) -> tuple[Dataset, int]:
    """Z-score every record (population std), a constant record to all
    zeros; returns the dataset and the count of constant records, which is
    logged as a warning. Holds the input and one more matrix at a time."""
    samples = dataset.records
    sd = samples.std(axis=1)
    flat = sd == 0.0
    out = samples - samples.mean(axis=1)[:, None]
    out[flat] = 0.0
    sd[flat] = 1.0
    out /= sd[:, None]
    count = int(flat.sum())
    if count:
        log.warning("%d constant record(s) normalized to all zeros", count)
    return Dataset(out, dataset.labels(), dataset.class_count), count


def _train_quota(fraction: float, n: int) -> int:
    # round half up, deterministic across platforms
    return int(np.floor(fraction * n + 0.5))


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition records into disjoint, stratified train/test sets, each in
    record order.

    The train side holds round(train_fraction * n) records, and each class
    keeps its share within one record of the global fraction; classes with
    fewer than two records go entirely to train (with a warning). Identical
    seeds produce identical splits.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    rng = np.random.default_rng(spec.seed)
    n_train = _train_quota(spec.train_fraction, n)
    labels = dataset.labels()
    train = np.zeros(n, dtype=bool)

    classes, sizes = np.unique(labels, return_counts=True)
    forced = classes[sizes < 2]
    if forced.size:
        log.warning("classes with <2 records kept entirely in train: %s", forced.tolist())
        train[np.isin(labels, forced)] = True
    rest, sizes = classes[sizes >= 2], sizes[sizes >= 2]
    quotas = np.floor(spec.train_fraction * sizes).astype(np.int64)
    short = max(0, n_train - int(train.sum())) - int(quotas.sum())
    # one more record for the classes with the largest fractional quota
    # left over, the lower class first on ties
    by_remainder = np.lexsort((rest, -(spec.train_fraction * sizes - quotas)))
    quotas[by_remainder[: max(short, 0)]] += 1
    for c, quota in zip(rest, quotas):
        idx = np.flatnonzero(labels == c)
        train[idx[rng.permutation(len(idx))[:quota]]] = True

    records = dataset.records
    return (Dataset(records[train], labels[train], dataset.class_count),
            Dataset(records[~train], labels[~train], dataset.class_count))


def class_template(label: int) -> np.ndarray:
    """Deterministic per-class waveform: sinusoid mixture plus a pulse train.

    Each class gets a distinct fundamental frequency, phase, pulse period and
    pulse amplitude, so any two class templates differ over a wide sample range.
    """
    if not 0 <= label < CLASS_COUNT:
        raise DataFormatError(f"label {label} out of range")
    t = np.arange(RECORD_SAMPLES) / SAMPLE_RATE_HZ
    freq = 0.8 + 0.45 * label
    phase = 2.0 * np.pi * ((0.37 * label) % 1.0)
    wave = np.sin(2.0 * np.pi * freq * t + phase)
    wave += 0.5 * np.sin(2.0 * np.pi * (2.3 * freq) * t)
    period = 90 + 23 * label
    width = 12 + 3 * (label % 5)
    pulse = (np.arange(RECORD_SAMPLES) % period) < width
    return wave + (1.5 + 0.1 * label) * pulse


def synth_generate(n_per_class: int, seed: int, noise_sigma: float = 0.0) -> Dataset:
    """Build 17 * n_per_class records from the class templates, class by class.

    With ``noise_sigma == 0`` the output is a pure function of ``n_per_class``
    (every copy of a class is the template itself, independent of seed).
    """
    if n_per_class < 1:
        raise DataFormatError("n_per_class must be >= 1")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise DataFormatError("noise_sigma must be finite and >= 0")
    rng = np.random.default_rng(seed)
    samples = np.empty((CLASS_COUNT * n_per_class, RECORD_SAMPLES))
    for c, rows in enumerate(samples.reshape(CLASS_COUNT, n_per_class, RECORD_SAMPLES)):
        rows[:] = class_template(c)
        if noise_sigma > 0:
            rows += rng.normal(0.0, noise_sigma, size=rows.shape)
    return Dataset(samples, np.repeat(np.arange(CLASS_COUNT), n_per_class))
