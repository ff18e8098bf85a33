import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqecg.data import (
    CLASS_COUNT,
    RECORD_SAMPLES,
    Dataset,
    EcgRecord,
    SplitSpec,
    class_template,
    load_dataset,
    normalize,
    normalize_dataset,
    save_dataset,
    split,
    synth_generate,
)
from alqecg.errors import DataFormatError, EmptyDatasetError


def make_record(value=0.5, label=0):
    return EcgRecord(np.full(RECORD_SAMPLES, value), label)


def write_csv(path, rows):
    path.write_text("".join(",".join(str(v) for v in row) + "\n" for row in rows))


class TestLoad:
    def test_two_valid_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [[0.1] * RECORD_SAMPLES + [3], [0.2] * RECORD_SAMPLES + [16]])
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.records[0].label == 3
        assert ds.records[1].samples[0] == pytest.approx(0.2)

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
        np.testing.assert_allclose(back.sample_matrix(), ds.sample_matrix(), atol=atol)

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


def load_raw_bytes(data: bytes) -> Dataset:
    """``load_dataset`` of raw-f32 ``data``, with every warning an error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.raw"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return load_dataset(path, format="raw-f32")


RAW_RECORD_BYTES = RECORD_SAMPLES * 4 + 1
SNAN_F32 = struct.pack("<I", 0x7FA00000)


class TestRawOffsets:
    def _two_records(self) -> bytes:
        return raw_bytes(Dataset([make_record(0.5, 3), make_record(-1.5, 16)]))

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


def fuzz_record(seed: int, label: int) -> EcgRecord:
    """Noise plus signed zeros, f32 subnormals and f32 extremes."""
    samples = np.random.default_rng(seed).normal(size=RECORD_SAMPLES)
    samples[:6] = [0.0, -0.0, 1e-45, -1e-40, 3.4e38, -3.4e38]
    return EcgRecord(samples, label)


# raw-f32 files the loader fuzz tests mutate: zero, one and two records
FUZZ_RAW = [raw_bytes(Dataset([fuzz_record(i, 5 * i) for i in range(n)])) for n in (0, 1, 2)]


def assert_raw_rejected_or_round_trips(data: bytes) -> None:
    """Loading ``data`` raises ``DataFormatError`` with an offset inside it,
    raises ``EmptyDatasetError`` for a zero count and no payload, or gives a
    dataset that ``save_dataset`` writes back as ``data``."""
    try:
        dataset = load_raw_bytes(data)
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


class TestNormalize:
    def test_constant_signal_goes_to_zero(self):
        out = normalize(make_record(5.0))
        assert np.all(out.samples == 0.0)

    def test_alternating_signal(self):
        samples = np.tile([0.0, 2.0], RECORD_SAMPLES // 2)
        out = normalize(EcgRecord(samples, 1))
        np.testing.assert_array_equal(out.samples, np.tile([-1.0, 1.0], RECORD_SAMPLES // 2))
        assert out.label == 1

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        rec = EcgRecord(rng.normal(2.0, 3.0, RECORD_SAMPLES), 0)
        once = normalize(rec)
        twice = normalize(once)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-6)

    def test_dataset_counts_flatlines(self):
        ds = Dataset([make_record(1.0), normalize(make_record(3.0, 2))])
        # second record is already all zeros, also a flatline
        out, flat = normalize_dataset(ds)
        assert flat == 2
        assert all(np.all(r.samples == 0) for r in out.records)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_normalized_moments(self, seed):
        rng = np.random.default_rng(seed)
        rec = EcgRecord(rng.normal(0, 5, RECORD_SAMPLES), 0)
        out = normalize(rec)
        assert abs(out.samples.mean()) < 1e-9
        assert abs(out.samples.std() - 1.0) < 1e-9


class TestSplit:
    def test_counts_and_disjoint(self):
        ds = synth_generate(1, seed=0)  # 17 records
        ds = Dataset(ds.records[:10])
        train, test = split(ds, SplitSpec(0.8, seed=0, stratified=False))
        assert len(train) == 8 and len(test) == 2

    def test_same_seed_same_split(self):
        ds = synth_generate(3, seed=1, noise_sigma=0.2)
        for stratified in (False, True):
            spec = SplitSpec(0.7, seed=42, stratified=stratified)
            a_train, a_test = split(ds, spec)
            b_train, b_test = split(ds, spec)
            assert np.array_equal(a_train.sample_matrix(), b_train.sample_matrix())
            assert np.array_equal(a_test.sample_matrix(), b_test.sample_matrix())

    def test_stratified_two_class_rounding(self):
        recs = [make_record(float(i), 0) for i in range(20)]
        recs += [make_record(float(i), 1) for i in range(20)]
        train, test = split(Dataset(recs), SplitSpec(0.8, seed=5))
        assert len(train) == 32
        labels = train.labels()
        assert (labels == 0).sum() == 16 and (labels == 1).sum() == 16

    def test_tiny_class_forced_to_train(self):
        recs = [make_record(float(i), 0) for i in range(10)] + [make_record(9.0, 1)]
        train, test = split(Dataset(recs), SplitSpec(0.8, seed=0))
        assert 1 in train.labels()
        assert 1 not in test.labels()

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            split(Dataset([]), SplitSpec())

    def test_bad_fraction(self):
        with pytest.raises(DataFormatError):
            SplitSpec(train_fraction=1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 1000),
        frac=st.floats(0.1, 0.9),
        stratified=st.booleans(),
    )
    def test_partition_property(self, n, seed, frac, stratified):
        recs = [make_record(float(i), i % 4) for i in range(n)]
        ds = Dataset(recs)
        train, test = split(ds, SplitSpec(frac, seed=seed, stratified=stratified))
        got = sorted(r.samples[0] for r in train.records + test.records)
        assert got == sorted(float(i) for i in range(n))
        train_vals = {r.samples[0] for r in train.records}
        test_vals = {r.samples[0] for r in test.records}
        assert not train_vals & test_vals


class TestSynth:
    def test_cardinality(self):
        ds = synth_generate(2, seed=0)
        assert len(ds) == 34
        counts = np.bincount(ds.labels(), minlength=CLASS_COUNT)
        assert np.all(counts == 2)

    def test_noiseless_is_seed_independent(self):
        a = synth_generate(2, seed=1, noise_sigma=0.0)
        b = synth_generate(2, seed=999, noise_sigma=0.0)
        assert np.array_equal(a.sample_matrix(), b.sample_matrix())

    def test_noisy_same_seed_identical(self):
        a = synth_generate(2, seed=5, noise_sigma=0.4)
        b = synth_generate(2, seed=5, noise_sigma=0.4)
        assert np.array_equal(a.sample_matrix(), b.sample_matrix())
        c = synth_generate(2, seed=6, noise_sigma=0.4)
        assert not np.array_equal(a.sample_matrix(), c.sample_matrix())

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
