import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqecg.bitpack import (
    deserialize,
    deserialize_bytes,
    injected_memory_report,
    memory_report,
    pack_signs,
    serialize,
    serialize_bytes,
    unpack_signs,
)
from alqecg.errors import ContainerFormatError
from alqecg.net import NetworkSpec, conv, default_ecgnet_spec, flatten, param_counts, pool, softmax_dense
from alqecg.quantizer import (
    ModelMeta,
    QuantGroup,
    QuantLayer,
    QuantModel,
    canonicalize,
    partition_groups,
    prune_coordinates,
    score_coordinates,
    init_decompose,
)


def small_spec():
    return NetworkSpec(
        [conv(3, 2, stride=1, padding=1), pool(2, 2), flatten(), softmax_dense(3)],
        input_length=16,
        input_channels=1,
        class_count=3,
    )


def random_model(rng, spec=None, group_size=None) -> QuantModel:
    """Random canonical model; coordinates are exactly f32-representable."""
    spec = spec or small_spec()
    group_size = group_size or int(rng.integers(1, 17))
    counts, _ = param_counts(spec)
    layer_indices = [i for i, l in enumerate(spec.layers)
                     if l.kind in ("conv1d", "dense", "softmax-dense")]
    layers = []
    for layer_index, (_, count) in zip(layer_indices, counts):
        groups = []
        for off in range(0, count, group_size):
            n = min(group_size, count - off)
            bitwidth = int(rng.integers(0, 5))
            bases = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, bitwidth))
            coords = rng.uniform(1e-3, 4.0, size=bitwidth)
            bases, coords = canonicalize(bases, coords)
            # the container stores f32 coordinates; keep the model on that grid
            coords = coords.astype(np.float32).astype(np.float64)
            groups.append(QuantGroup(bases, coords))
        layers.append(QuantLayer(groups, group_size, count, layer_index))
    meta = ModelMeta(int(rng.integers(0, 2**63)), rng.bytes(32).hex())
    return QuantModel(spec, layers, group_size, meta)


def models_equal(a: QuantModel, b: QuantModel) -> bool:
    if a.group_size != b.group_size or a.meta != b.meta:
        return False
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if (la.layer_index, la.param_count) != (lb.layer_index, lb.param_count):
            return False
        if len(la.groups) != len(lb.groups):
            return False
        for ga, gb in zip(la.groups, lb.groups):
            if not np.array_equal(ga.bases, gb.bases):
                return False
            if ga.coords.tobytes() != gb.coords.tobytes():
                return False
    return True


class TestPacking:
    def test_eight_signs_one_byte(self):
        col = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=np.int8)
        packed = pack_signs(col)
        assert len(packed) == 1
        assert np.array_equal(unpack_signs(packed, 8), col)

    def test_lsb_first_layout(self):
        col = np.array([1, -1, -1, -1, -1, -1, -1, -1], dtype=np.int8)
        assert pack_signs(col) == b"\x01"
        col[0], col[7] = -1, 1
        assert pack_signs(col) == b"\x80"

    def test_padding_to_byte(self):
        col = np.ones(11, dtype=np.int8)
        packed = pack_signs(col)
        assert len(packed) == 2
        assert np.array_equal(unpack_signs(packed, 11), col)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
    def test_round_trip(self, signs):
        col = np.array(signs, dtype=np.int8)
        assert np.array_equal(unpack_signs(pack_signs(col), col.size), col)


class TestSerializeRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        model = random_model(np.random.default_rng(0))
        path = tmp_path / "m.alqq"
        serialize(model, path)
        assert models_equal(model, deserialize(path))

    def test_reserialize_byte_identical(self):
        model = random_model(np.random.default_rng(1))
        data = serialize_bytes(model)
        assert serialize_bytes(deserialize_bytes(data)) == data

    def test_empty_group_zero_payload(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        target = model.layers[0].groups[0]
        model.layers[0].groups[0] = QuantGroup(
            np.zeros((target.size, 0), dtype=np.int8), np.zeros(0)
        )
        assert models_equal(model, deserialize_bytes(serialize_bytes(model)))

    def test_many_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            model = random_model(rng)
            assert models_equal(model, deserialize_bytes(serialize_bytes(model)))


class TestDeserializeErrors:
    def test_bad_magic(self):
        with pytest.raises(ContainerFormatError, match="bad magic at offset 0"):
            deserialize_bytes(b"XXXX" + b"\x00" * 100)

    def test_truncated_coordinates(self):
        model = random_model(np.random.default_rng(4))
        data = serialize_bytes(model)
        # chop inside the first layer's group payload
        with pytest.raises(ContainerFormatError, match="truncated"):
            deserialize_bytes(data[: len(data) // 2])

    def test_trailing_bytes(self):
        model = random_model(np.random.default_rng(5))
        with pytest.raises(ContainerFormatError, match="trailing"):
            deserialize_bytes(serialize_bytes(model) + b"\x00")

    def test_pool_padding_rejected_at_descriptor_offset(self):
        from test_net import patch_pool_padding

        # small_spec: conv, pool, ...; the header is magic + u16 version
        model = random_model(np.random.default_rng(7))
        blob, at = patch_pool_padding(serialize_bytes(model), 1, 6)
        with pytest.raises(ContainerFormatError, match="pool padding") as err:
            deserialize_bytes(blob)
        assert err.value.offset == at

    def test_non_canonical_rejected(self):
        model = random_model(np.random.default_rng(6))
        # force a duplicate column pair in some group
        for ql in model.layers:
            for gi, g in enumerate(ql.groups):
                if g.size >= 2:
                    bases = np.ones((g.size, 2), dtype=np.int8)
                    ql.groups[gi] = QuantGroup.__new__(QuantGroup)
                    ql.groups[gi].bases = bases
                    ql.groups[gi].coords = np.array([1.0, 0.5])
                    data = serialize_bytes(model)
                    with pytest.raises(ContainerFormatError, match="duplicate"):
                        deserialize_bytes(data)
                    return
        pytest.fail("no group of size >= 2")


class TestMemoryReport:
    REFERENCE_PROFILE = {
        # layer: (avg bitwidth, expected sign bits)
        "Conv1D_1": (1.2500, 170),
        "Conv1D_2": (1.9896, 2316),
        "Conv1D_3": (5921 / 3488, 5921),
        "Conv1D_4": (1.7095, 24617),
        "Conv1D_5": (1.4133, 29035),
        "Conv1D_6": (0.8545, 10555),
        "Conv1D_7": (0.8550, 11881),
        "Dense": (1.7422, 24196),
        "Softmax": (2.0000, 2210),
    }

    def test_single_row_arithmetic(self):
        spec = default_ecgnet_spec()
        report = injected_memory_report(
            spec, {name: bw for name, (bw, _) in self.REFERENCE_PROFILE.items()}
        )
        row = {r.name: r for r in report.rows}["Conv1D_1"]
        assert row.params == 136
        assert row.base_bits == 170

    def test_reference_profile_totals(self):
        spec = default_ecgnet_spec()
        report = injected_memory_report(
            spec, {name: bw for name, (bw, _) in self.REFERENCE_PROFILE.items()}
        )
        for row in report.rows:
            assert abs(row.base_bits - self.REFERENCE_PROFILE[row.name][1]) <= 1
        assert report.total_base_bits == 110901
        assert report.total_kb == 13.538
        assert report.compression_rate == pytest.approx(2591136 / 110901)
        assert abs(report.compression_rate - 23.36) <= 0.01

    def test_real_model_consistency(self):
        model = random_model(np.random.default_rng(7))
        report = memory_report(model)
        for row, ql in zip(report.rows, model.layers):
            bits = sum(g.size * g.bitwidth for g in ql.groups)
            assert row.base_bits == bits
            assert row.base_bits == int(np.floor(row.params * row.avg_bitwidth + 0.5))
        assert report.coord_overhead_bits == 32 * sum(
            g.bitwidth for ql in model.layers for g in ql.groups
        )
        assert report.container_bits == len(serialize_bytes(model)) * 8

    def test_container_accounting_decomposes_exactly(self):
        # container = headers + coordinates + sign payload; base_bits counts
        # the meaningful sign bits, column byte-padding is accounted on top
        model = random_model(np.random.default_rng(10))
        report = memory_report(model)
        # magic 4, version 2, descriptor head 8, 14 per layer row,
        # meta seed 8 + digest 32, group size 2
        spec_bytes = 4 + 2 + 8 + 14 * len(model.spec.layers) + 8 + 32 + 2
        group_header_bits = 0
        coord_bits = 0
        payload_bits = 0
        padding_bits = 0
        for ql in model.layers:
            group_header_bits += 32  # group count u32
            for g in ql.groups:
                group_header_bits += (2 + 1) * 8
                coord_bits += g.bitwidth * 32
                payload_bits += g.size * g.bitwidth
                padding_bits += g.bitwidth * (((g.size + 7) // 8) * 8 - g.size)
        assert payload_bits == report.total_base_bits
        assert coord_bits == report.coord_overhead_bits
        assert report.container_bits == (
            spec_bytes * 8 + group_header_bits + coord_bits + payload_bits + padding_bits
        )

    def test_kb_convention_is_1024(self):
        # 110901 bits / 8 / 1024 rounds to 13.538 only under the 1024 convention
        assert round(110901 / 8 / 1024, 3) == 13.538
        assert round(110901 / 8 / 1000, 3) != 13.538

    def test_headline_monotone_under_pruning(self):
        rng = np.random.default_rng(8)
        flat = rng.normal(size=99)
        groups = partition_groups(flat, 16)
        qgroups = [init_decompose(g, 3) for g in groups]
        layers = [QuantLayer(qgroups, 16, flat.size, 3)]
        spec = small_spec()
        scores = score_coordinates(layers, None, None, "magnitude")
        prev = np.inf
        for rate in [0.0, 0.3, 0.6, 1.0]:
            pruned = prune_coordinates(layers, scores, rate=rate)
            model = QuantModel(spec, pruned, 16)
            bits = memory_report(model).total_base_bits
            assert bits <= prev
            prev = bits

    def test_fully_pruned_model(self):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        for ql in model.layers:
            for gi, g in enumerate(ql.groups):
                ql.groups[gi] = QuantGroup(np.zeros((g.size, 0), np.int8), np.zeros(0))
        report = memory_report(model)
        assert report.total_base_bits == 0
        assert not np.isfinite(report.compression_rate)
        assert report.to_json_dict()["compression_rate"] is None

    def test_format_table_shape(self):
        spec = default_ecgnet_spec()
        report = injected_memory_report(
            spec, {name: bw for name, (bw, _) in self.REFERENCE_PROFILE.items()}
        )
        table = report.format_table()
        lines = table.strip().splitlines()
        assert len(lines) == 1 + 9 + 1 + 1  # header, layers, total, compression
        assert "110,901 Bit = 13.538 KB" in table

    def test_injected_validates_names(self):
        with pytest.raises(ValueError, match="missing bitwidth"):
            injected_memory_report(default_ecgnet_spec(), {"Conv1D_1": 1.0})

    def test_injected_sequence_form(self):
        report = injected_memory_report(
            default_ecgnet_spec(), [bw for bw, _ in self.REFERENCE_PROFILE.values()]
        )
        assert report.total_base_bits == 110901


class TestReferenceProfileConsistency:
    def test_third_conv_listed_width_is_self_inconsistent(self):
        # the profile's 1.7005 average for the third conv layer cannot produce
        # its own 5,921-bit row (3488 * 1.7005 rounds to 5,931); the tests
        # therefore inject the bit-implied width 5921/3488 instead
        assert int(np.floor(3488 * 1.7005 + 0.5)) == 5931
        assert int(np.floor(3488 * (5921 / 3488) + 0.5)) == 5921
