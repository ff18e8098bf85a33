import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alqecg.data import (
    CLASS_COUNT,
    RECORD_SAMPLES,
    Dataset,
    SplitSpec,
    class_template,
    load_dataset,
    normalize_dataset,
    save_dataset,
    split,
    synth_generate,
)
from alqecg.errors import DataFormatError, EmptyDatasetError


def constant_records(values, labels) -> Dataset:
    """One constant record per value, with its label."""
    return Dataset(np.repeat(np.asarray(values, dtype=float)[:, None], RECORD_SAMPLES, axis=1),
                   labels)


def normalize_one(samples) -> np.ndarray:
    """``normalize_dataset`` of one record's samples."""
    return normalize_dataset(Dataset([samples], [0]))[0].records[0]


def write_csv(path, rows):
    path.write_text("".join(",".join(str(v) for v in row) + "\n" for row in rows))


class TestLoad:
    def test_two_valid_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[0.1] * RECORD_SAMPLES + [3], [0.2] * RECORD_SAMPLES + [16]])
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.labels().tolist() == [3, 16]
        assert ds.records.shape == (2, RECORD_SAMPLES) and ds.records.flags.c_contiguous
        assert ds.records[1, 0] == pytest.approx(0.2)

    def test_short_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[0.1] * (RECORD_SAMPLES - 1) + [3]])
        with pytest.raises(DataFormatError, match="record 0: expected 3600 samples"):
            load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[0.1] * RECORD_SAMPLES + [17]])
        with pytest.raises(DataFormatError, match="record 0: label out of range"):
            load_dataset(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[0.1] * (RECORD_SAMPLES - 1) + ["oops", 2]])
        with pytest.raises(DataFormatError, match="record 0: non-numeric sample"):
            load_dataset(path)

    def test_bad_row_index_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[0.1] * RECORD_SAMPLES + [1], [0.1] * 10 + [1]])
        with pytest.raises(DataFormatError, match="record 1"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_dataset(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "d.bin", format="nope")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "raw-f32"])
    def test_save_load(self, tmp_path, fmt):
        ds = synth_generate(2, seed=9, noise_sigma=0.3)
        path = tmp_path / f"d.{fmt}"
        save_dataset(path, ds, fmt)
        back = load_dataset(path, fmt)
        assert len(back) == len(ds)
        assert back.labels().tolist() == ds.labels().tolist()
        atol = 0 if fmt == "csv" else 1e-6  # raw stores f32
        np.testing.assert_allclose(back.records, ds.records, atol=atol)
        # signed zeros, subnormals and f32 extremes come back byte for byte
        save_dataset(path, fuzz_records(2), fmt)
        once = path.read_bytes()
        save_dataset(path, load_dataset(path, fmt), fmt)
        assert path.read_bytes() == once

    @pytest.mark.parametrize("fmt", ["csv", "raw-f32"])
    def test_short_records_not_written(self, tmp_path, fmt):
        path = tmp_path / "d"
        with pytest.raises(DataFormatError, match="records of 8 samples, the file formats hold 3600"):
            save_dataset(path, Dataset(np.zeros((2, 8)), [0, 1]), fmt)
        assert not path.exists()

    def test_raw_writer_refuses_what_its_loader_rejects(self, tmp_path):
        # samples beyond the f32 range: the cast turns them into infinities
        samples = np.zeros((3, RECORD_SAMPLES))
        samples[0, 0] = np.finfo(np.float32).max
        samples[1, 7], samples[2, 0] = -1e39, 1e39
        path = tmp_path / "d.raw"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError,
                               match="record 1: sample beyond the float32 range"):
                save_dataset(path, Dataset(samples, [0, 1, 2]), "raw-f32")
            # a label the file format's 17 classes do not hold
            with pytest.raises(DataFormatError, match="record 0: label out of range"):
                save_dataset(path, Dataset(samples[:1], [17], class_count=18), "raw-f32")
        assert not path.exists()
        save_dataset(path, Dataset(samples[:1], [0]), "raw-f32")
        assert load_dataset(path, "raw-f32").records[0, 0] == samples[0, 0]

    def test_csv_writer_refuses_a_label_its_loader_rejects(self, tmp_path):
        # a label the file format's 17 classes do not hold, after a good one
        path = tmp_path / "d.csv"
        with pytest.raises(DataFormatError, match="record 1: label out of range"):
            save_dataset(path, Dataset(np.zeros((2, RECORD_SAMPLES)), [3, 17], class_count=18))
        assert not path.exists()

    def test_raw_bad_magic(self, tmp_path):
        path = tmp_path / "d.raw"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(DataFormatError, match="bad magic"):
            load_dataset(path, format="raw-f32")

    def test_raw_trailing_bytes(self, tmp_path):
        ds = synth_generate(1, seed=0)
        path = tmp_path / "d.raw"
        save_dataset(path, ds, "raw-f32")
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(DataFormatError, match=f"3 trailing bytes at offset {size}"):
            load_dataset(path, format="raw-f32")

    def test_raw_truncated(self, tmp_path):
        ds = synth_generate(1, seed=0)
        path = tmp_path / "d.raw"
        save_dataset(path, ds, "raw-f32")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataFormatError, match="record 16: truncated"):
            load_dataset(path, format="raw-f32")


def raw_bytes(dataset: Dataset) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.raw"
        save_dataset(path, dataset, "raw-f32")
        return path.read_bytes()


def load_raw_file(path) -> Dataset:
    """``load_dataset`` of a raw-f32 file, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_dataset(path, format="raw-f32")


def load_raw_bytes(data: bytes) -> Dataset:
    """``load_raw_file`` of a file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.raw"
        path.write_bytes(data)
        return load_raw_file(path)


RAW_RECORD_BYTES = RECORD_SAMPLES * 4 + 1
SNAN_F32 = struct.pack("<I", 0x7FA00000)


class TestRawOffsets:
    def _two_records(self) -> bytes:
        return raw_bytes(constant_records([0.5, -1.5], [3, 16]))

    @pytest.mark.parametrize("sample", [struct.pack("<f", np.nan), struct.pack("<f", -np.inf),
                                        SNAN_F32])
    def test_non_finite_sample_at_its_offset(self, sample):
        data = bytearray(self._two_records())
        at = 8 + RAW_RECORD_BYTES + 4 * 1234  # record 1, sample 1234
        data[at : at + 4] = sample
        with pytest.raises(DataFormatError, match="record 1: non-finite sample") as err:
            load_raw_bytes(bytes(data))
        assert err.value.offset == at

    @pytest.mark.parametrize("cut, record, offset", [
        (7, None, 4), (8 + 100, 0, 8), (8 + 2 * RAW_RECORD_BYTES - 1, 1, 8 + RAW_RECORD_BYTES),
    ])
    def test_truncation_at_the_record_start(self, cut, record, offset):
        with pytest.raises(DataFormatError) as err:
            load_raw_bytes(self._two_records()[:cut])
        what = "truncated record count" if record is None else f"record {record}: truncated"
        assert what in str(err.value) and err.value.offset == offset

    def test_label_at_its_offset(self):
        data = bytearray(self._two_records())
        at = 8 + 2 * RAW_RECORD_BYTES - 1
        data[at] = CLASS_COUNT
        with pytest.raises(DataFormatError, match="record 1: label out of range") as err:
            load_raw_bytes(bytes(data))
        assert err.value.offset == at

    def test_magic_and_trailing_offsets(self):
        data = self._two_records()
        with pytest.raises(DataFormatError, match="bad magic") as err:
            load_raw_bytes(b"ALQX" + data[4:])
        assert err.value.offset == 0
        with pytest.raises(DataFormatError, match="1 trailing bytes") as err:
            load_raw_bytes(data + b"\0")
        assert err.value.offset == len(data)

    def test_csv_errors_have_no_offset(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[0.1] * RECORD_SAMPLES + [17]])
        with pytest.raises(DataFormatError, match="record 0: label out of range") as err:
            load_dataset(path)
        assert err.value.offset is None


def fuzz_records(n: int) -> Dataset:
    """``n`` records of noise from seed i and label 5 * i, each starting
    with signed zeros, f32 subnormals and f32 extremes."""
    samples = np.array([np.random.default_rng(i).normal(size=RECORD_SAMPLES) for i in range(n)])
    samples = samples.reshape(n, RECORD_SAMPLES)
    samples[:, :6] = [0.0, -0.0, 1e-45, -1e-40, 3.4e38, -3.4e38]
    return Dataset(samples, 5 * np.arange(n))


# raw-f32 files the loader fuzz tests mutate: zero, one and two records
FUZZ_RAW = [raw_bytes(fuzz_records(n)) for n in (0, 1, 2)]


def assert_raw_rejected_or_round_trips(data: bytes, path=None) -> None:
    """Loading ``data`` raises ``DataFormatError`` with an offset inside it,
    raises ``EmptyDatasetError`` for a zero count and no payload, or gives a
    dataset that ``save_dataset`` writes back as ``data``. With ``path``,
    the file there holds ``data`` already and is loaded as it is."""
    try:
        dataset = load_raw_bytes(data) if path is None else load_raw_file(path)
    except DataFormatError as err:
        assert err.offset is not None and 0 <= err.offset <= len(data)
    except EmptyDatasetError:
        assert data == b"ALQD" + bytes(4)
    else:
        assert raw_bytes(dataset) == data


class TestRawLoaderFuzz:
    @settings(max_examples=100, deadline=None)
    @given(blob=st.sampled_from(FUZZ_RAW), cut=st.floats(0, 1, exclude_max=True))
    def test_truncation(self, blob, cut):
        assert_raw_rejected_or_round_trips(blob[: int(cut * len(blob))])

    @settings(max_examples=200, deadline=None)
    @given(blob=st.sampled_from(FUZZ_RAW), at=st.floats(0, 1, exclude_max=True))
    def test_single_bit_flip(self, blob, at):
        bit = int(at * 8 * len(blob))
        data = bytearray(blob)
        data[bit // 8] ^= 1 << (bit % 8)
        assert_raw_rejected_or_round_trips(bytes(data))

    @settings(max_examples=150, deadline=None)
    @given(head=st.sampled_from(FUZZ_RAW), tail=st.sampled_from(FUZZ_RAW),
           i=st.floats(0, 1), j=st.floats(0, 1))
    def test_splice(self, head, tail, i, j):
        assert_raw_rejected_or_round_trips(head[: int(i * len(head))] + tail[int(j * len(tail)) :])


def csv_bytes(dataset: Dataset) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dataset(path, dataset, "csv")
        return path.read_bytes()


def load_csv_bytes(data: bytes) -> Dataset:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(data)
        return load_dataset(path)


# the CSV file the loader fuzz tests mutate: two records
FUZZ_CSV = csv_bytes(fuzz_records(2))


def assert_csv_rejected_or_round_trips(data: bytes) -> None:
    """Loading ``data`` as CSV raises ``DataFormatError`` with no offset or
    ``EmptyDatasetError``, or gives a dataset that ``save_dataset`` and
    ``load_dataset`` give back unchanged."""
    try:
        dataset = load_csv_bytes(data)
    except DataFormatError as err:
        assert err.offset is None
    except EmptyDatasetError:
        pass
    else:
        back = load_csv_bytes(csv_bytes(dataset))
        assert back.records.tobytes() == dataset.records.tobytes()
        assert np.array_equal(back.labels(), dataset.labels())


class TestCsvLoaderFuzz:
    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(0, len(FUZZ_CSV) - 1))
    def test_truncation(self, cut):
        assert_csv_rejected_or_round_trips(FUZZ_CSV[:cut])

    @settings(max_examples=150, deadline=None)
    @given(bit=st.integers(0, 8 * len(FUZZ_CSV) - 1))
    @example(bit=8 * 10 + 7)  # a byte that is not UTF-8, inside record 0
    def test_single_bit_flip(self, bit):
        data = bytearray(FUZZ_CSV)
        data[bit // 8] ^= 1 << (bit % 8)
        assert_csv_rejected_or_round_trips(bytes(data))


class TestRawLoaderExhaustive:
    """Every truncation of the one-record fuzz file, and every single-bit
    flip of its header, its label and its first ``SAMPLES`` samples (the
    signed zeros, subnormals and f32 extremes, then noise). The file is
    changed in place, so each case costs one load."""

    BLOB = FUZZ_RAW[1]
    SAMPLES = 16

    def test_every_truncation(self, tmp_path):
        path = tmp_path / "d.raw"
        path.write_bytes(self.BLOB)
        with open(path, "r+b") as fh:
            for cut in range(len(self.BLOB) - 1, -1, -1):
                fh.truncate(cut)
                assert_raw_rejected_or_round_trips(self.BLOB[:cut], path)

    def test_every_header_label_and_sample_bit_flip(self, tmp_path):
        path = tmp_path / "d.raw"
        path.write_bytes(self.BLOB)
        data = bytearray(self.BLOB)
        positions = [*range(8 + 4 * self.SAMPLES), len(data) - 1]
        with open(path, "r+b") as fh:
            for at in positions:
                for bit in range(8):
                    data[at] ^= 1 << bit
                    os.pwrite(fh.fileno(), data[at : at + 1], at)
                    assert_raw_rejected_or_round_trips(bytes(data), path)
                    data[at] ^= 1 << bit
                os.pwrite(fh.fileno(), data[at : at + 1], at)


def faulty_file(path, fmt, bad_label=(), bad_sample=(), short=None) -> None:
    """Five valid records written as ``fmt``, then: label 17 for the records
    in ``bad_label``, a NaN at sample 7 for those in ``bad_sample``, and
    record ``short`` cut short, with none after it."""
    ds = constant_records([0.1, 0.2, 0.3, 0.4, 0.5], [0, 1, 2, 3, 4])
    if fmt == "csv":
        rows = [row + [label] for row, label in zip(ds.records.tolist(), ds.labels().tolist())]
        for i in bad_label:
            rows[i][-1] = 17
        for i in bad_sample:
            rows[i][7] = "nan"
        if short is not None:
            rows = rows[:short] + [rows[short][:10] + [0]]
        write_csv(path, rows)
        return
    data = bytearray(raw_bytes(ds))
    for i in bad_label:
        data[8 + (i + 1) * RAW_RECORD_BYTES - 1] = CLASS_COUNT
    for i in bad_sample:
        data[8 + i * RAW_RECORD_BYTES + 28 : 8 + i * RAW_RECORD_BYTES + 32] = SNAN_F32
    if short is not None:
        del data[8 + short * RAW_RECORD_BYTES + 100 :]
    path.write_bytes(bytes(data))


class TestFirstFault:
    """Both loaders reject a file for its first faulty record, and within a
    record for a sample fault before a label fault; raw-f32 at its byte."""

    R = RAW_RECORD_BYTES

    @pytest.mark.parametrize("fmt", ["csv", "raw-f32"])
    @pytest.mark.parametrize("faults, message, offset", [
        (dict(bad_label=[1], bad_sample=[3], short=4), "record 1: label out of range",
         8 + 2 * R - 1),
        (dict(bad_label=[2, 3], bad_sample=[2]), "record 2: non-finite sample", 8 + 2 * R + 28),
        (dict(bad_sample=[3, 4]), "record 3: non-finite sample", 8 + 3 * R + 28),
        (dict(short=4), "record 4: ", 8 + 4 * R),
    ], ids=["label-before-later-faults", "sample-before-label", "first-sample", "short"])
    def test_first_fault_reported(self, tmp_path, fmt, faults, message, offset):
        path = tmp_path / "d"
        faulty_file(path, fmt, **faults)
        with pytest.raises(DataFormatError, match=message) as err:
            load_raw_bytes(path.read_bytes()) if fmt == "raw-f32" else load_dataset(path)
        assert err.value.offset == (offset if fmt == "raw-f32" else None)


class TestDatasetChecks:
    def test_matrix_and_label_vector(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0]], [1, 0], class_count=2)
        assert ds.records.dtype == np.float64 and ds.records.flags.c_contiguous
        assert ds.labels().dtype == np.int64 and ds.labels().tolist() == [1, 0]
        assert len(ds) == 2 and ds.class_count == 2

    @pytest.mark.parametrize("records, labels, match", [
        (np.zeros(4), [0], r"records must be an \(n, samples\) matrix, got shape \(4,\)"),
        (np.zeros((3, 4)), [0, 1], r"labels of shape \(2,\) for 3 records"),
        (np.zeros((2, 4)), [[0, 1]], r"labels of shape \(1, 2\) for 2 records"),
    ], ids=["1-D", "label-count", "2-D-labels"])
    def test_shape_rejected(self, records, labels, match):
        with pytest.raises(DataFormatError, match=match):
            Dataset(records, labels)

    @pytest.mark.parametrize("bad_sample, labels, message", [
        (2, [0, 0, 0, 3], "record 2: non-finite sample"),
        (2, [0, 3, 0, 0], "record 1: label out of range"),
        (None, [0, 0, -1, 3], "record 2: label out of range"),
        (1, [0, 3, 0, 0], "record 1: non-finite sample"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_first_bad_record_named(self, bad_sample, labels, message, value):
        samples = np.zeros((4, 5))
        if bad_sample is not None:
            samples[bad_sample, 3] = value
        with pytest.raises(DataFormatError, match=message) as err:
            Dataset(samples, labels, class_count=3)
        assert err.value.offset is None


class TestNormalize:
    def test_constant_signal_goes_to_zero(self):
        out = normalize_one(np.full(RECORD_SAMPLES, 5.0))
        assert np.all(out == 0.0)

    def test_alternating_signal(self):
        ds = Dataset([np.tile([0.0, 2.0], RECORD_SAMPLES // 2)], [1])
        out, _ = normalize_dataset(ds)
        np.testing.assert_array_equal(out.records[0], np.tile([-1.0, 1.0], RECORD_SAMPLES // 2))
        assert out.labels().tolist() == [1]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = normalize_one(rng.normal(2.0, 3.0, RECORD_SAMPLES))
        twice = normalize_one(once)
        np.testing.assert_allclose(twice, once, atol=1e-6)

    def test_dataset_counts_flatlines(self):
        ds = Dataset([np.full(RECORD_SAMPLES, 1.0), normalize_one(np.full(RECORD_SAMPLES, 3.0))],
                     [0, 2])
        # second record is already all zeros, also a flatline
        out, flat = normalize_dataset(ds)
        assert flat == 2
        assert np.all(out.records == 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_normalized_moments(self, seed):
        rng = np.random.default_rng(seed)
        out = normalize_one(rng.normal(0, 5, RECORD_SAMPLES))
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9

    def test_rows_equal_the_per_record_zscore(self):
        # each row's bytes are those of z-scoring that record on its own
        rng = np.random.default_rng(12)
        samples = rng.normal(3.0, 2.0, (5, RECORD_SAMPLES))
        samples[2] = 0.7  # constant
        samples[4] *= 1e-30
        out, flat = normalize_dataset(Dataset(samples, [0, 1, 2, 3, 4]))
        assert flat == 1
        for row, got in zip(samples, out.records):
            sd = row.std()
            want = np.zeros_like(row) if sd == 0 else (row - row.mean()) / sd
            assert got.tobytes() == want.tobytes()
        assert samples[2, 0] == 0.7  # the input is left as it was


def reference_split(labels, spec: SplitSpec) -> set[int]:
    """The train indices of ``split``, from one pass over the records and
    one over the classes in a dict of index lists."""
    n = len(labels)
    rng = np.random.default_rng(spec.seed)
    n_train = int(np.floor(spec.train_fraction * n + 0.5))
    by_class: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    train = {i for idx in by_class.values() if len(idx) < 2 for i in idx}
    rest = [c for c in sorted(by_class) if len(by_class[c]) >= 2]
    remaining = max(0, n_train - len(train))
    quotas = {c: int(np.floor(spec.train_fraction * len(by_class[c]))) for c in rest}
    short = remaining - sum(quotas.values())
    for c in sorted(rest, key=lambda c: (-(spec.train_fraction * len(by_class[c]) - quotas[c]),
                                         c)):
        if short <= 0:
            break
        if quotas[c] < len(by_class[c]):
            quotas[c] += 1
            short -= 1
    for c in rest:
        idx = np.array(by_class[c])
        train.update(idx[rng.permutation(len(idx))][: quotas[c]].tolist())
    return train


class TestSplit:
    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(0, 5), min_size=1, max_size=40),
           seed=st.integers(0, 1000), frac=st.floats(0.05, 0.95))
    def test_matches_the_per_record_reference(self, labels, seed, frac):
        spec = SplitSpec(frac, seed=seed)
        ds = constant_records(range(len(labels)), labels)
        train, _ = split(ds, spec)
        assert train.records[:, 0].tolist() == sorted(reference_split(labels, spec))

    def test_counts_and_disjoint(self):
        ds = constant_records(range(10), [0, 1] * 5)
        train, test = split(ds, SplitSpec(0.8, seed=0))
        assert len(train) == 8 and len(test) == 2
        assert not set(train.records[:, 0]) & set(test.records[:, 0])

    def test_same_seed_same_split(self):
        ds = synth_generate(3, seed=1, noise_sigma=0.2)
        spec = SplitSpec(0.7, seed=42)
        a_train, a_test = split(ds, spec)
        b_train, b_test = split(ds, spec)
        assert np.array_equal(a_train.records, b_train.records)
        assert np.array_equal(a_test.records, b_test.records)

    def test_stratified_two_class_rounding(self):
        ds = constant_records(list(range(20)) * 2, [0] * 20 + [1] * 20)
        train, test = split(ds, SplitSpec(0.8, seed=5))
        assert len(train) == 32
        labels = train.labels()
        assert (labels == 0).sum() == 16 and (labels == 1).sum() == 16

    def test_tiny_class_forced_to_train(self):
        ds = constant_records(list(range(10)) + [9], [0] * 10 + [1])
        train, test = split(ds, SplitSpec(0.8, seed=0))
        assert 1 in train.labels()
        assert 1 not in test.labels()

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            split(Dataset(np.zeros((0, RECORD_SAMPLES)), []), SplitSpec())

    def test_bad_fraction(self):
        with pytest.raises(DataFormatError):
            SplitSpec(train_fraction=1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 1000),
        frac=st.floats(0.1, 0.9),
    )
    def test_partition_property(self, n, seed, frac):
        ds = constant_records(range(n), [i % 4 for i in range(n)])
        train, test = split(ds, SplitSpec(frac, seed=seed))
        train_vals, test_vals = train.records[:, 0].tolist(), test.records[:, 0].tolist()
        assert sorted(train_vals + test_vals) == [float(i) for i in range(n)]
        # each side keeps the records' order and their labels
        assert train_vals == sorted(train_vals) and test_vals == sorted(test_vals)
        for side in (train, test):
            assert side.labels().tolist() == [int(v) % 4 for v in side.records[:, 0]]


class TestSynth:
    def test_cardinality(self):
        ds = synth_generate(2, seed=0)
        assert len(ds) == 34
        counts = np.bincount(ds.labels(), minlength=CLASS_COUNT)
        assert np.all(counts == 2)

    def test_noiseless_is_seed_independent(self):
        a = synth_generate(2, seed=1, noise_sigma=0.0)
        b = synth_generate(2, seed=999, noise_sigma=0.0)
        assert np.array_equal(a.records, b.records)

    def test_noisy_same_seed_identical(self):
        a = synth_generate(2, seed=5, noise_sigma=0.4)
        b = synth_generate(2, seed=5, noise_sigma=0.4)
        assert np.array_equal(a.records, b.records)
        c = synth_generate(2, seed=6, noise_sigma=0.4)
        assert not np.array_equal(a.records, c.records)

    def test_records_are_templates_plus_noise_drawn_in_record_order(self):
        ds = synth_generate(3, seed=8, noise_sigma=0.5)
        rng = np.random.default_rng(8)
        for i, (row, label) in enumerate(zip(ds.records, ds.labels())):
            assert label == i // 3
            want = class_template(label) + rng.normal(0.0, 0.5, size=RECORD_SAMPLES)
            assert row.tobytes() == want.tobytes()

    def test_templates_separated(self):
        # every class pair differs by more than 0.1 on at least 10% of samples
        templates = [class_template(c) for c in range(CLASS_COUNT)]
        for a in range(CLASS_COUNT):
            for b in range(a + 1, CLASS_COUNT):
                frac = (np.abs(templates[a] - templates[b]) > 0.1).mean()
                assert frac >= 0.10, (a, b, frac)

    def test_parameter_validation(self):
        with pytest.raises(DataFormatError):
            synth_generate(0, seed=0)
        with pytest.raises(DataFormatError):
            synth_generate(1, seed=0, noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        # NaN fails every comparison, so a `< 0` check alone wrote noiseless data
        with pytest.raises(DataFormatError, match="noise_sigma must be finite"):
            synth_generate(1, seed=0, noise_sigma=sigma)
