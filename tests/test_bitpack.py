import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alqecg.bitpack import (
    MAGIC,
    VERSION,
    deserialize,
    deserialize_bytes,
    injected_memory_report,
    memory_report,
    serialize,
    serialize_bytes,
)
from alqecg.errors import ConfigError, ContainerFormatError, ShapeError
from alqecg.net import (
    NetworkSpec,
    conv,
    default_ecgnet_spec,
    dense,
    flatten,
    init_params,
    layer_table,
    pack_header,
    pool,
    softmax_dense,
)
from alqecg.quantizer import (
    ENUM_BITWIDTH_LIMIT,
    Groups,
    ModelMeta,
    QuantModel,
    canonicalize,
    group_sizes,
    layer_spans,
    prune_coordinates,
    score_coordinates,
    uniform_baseline,
)
from conftest import tiny_spec, traced_peak
from test_net import valid_specs
from test_quantizer import (
    arrays_sha256,
    concat,
    empty_groups,
    groups_equal,
    groups_of,
    init_groups,
    model_of,
    with_arrays,
    writable,
)

# SHA-256 of the ALQQ bytes of a 2-bit uniform baseline of the untrained
# default network at group size 11, where every layer ends in a short group
UNIFORM_ALQQ_SHA256 = "46672657e94337624358faac51c1e874531f25836bd53e0232b2f776f19d1372"
# and of its signs, coords and bits arrays (test_quantizer.arrays_sha256)
UNIFORM_ARRAYS_SHA256 = "a783296127f676d77f7cf95fce3997eafd4b67cd2afe5804f46c018e59ae9a76"


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
    layers = []
    for row, _ in layer_spans(spec, group_size):
        count = row.count
        n_groups = -(-count // group_size)
        tail = count - (n_groups - 1) * group_size
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_groups, group_size, 4))
        coords = rng.uniform(1e-3, 4.0, size=(n_groups, 4))
        coords[np.arange(4) >= rng.integers(0, 5, size=(n_groups, 1))] = 0.0
        signs, coords, bits = canonicalize(signs, coords)
        # the last group is canonical at its own size, zero past it
        signs[-1:, :tail], coords[-1:], bits[-1:] = canonicalize(
            signs[-1:, :tail], coords[-1:])
        signs[-1, tail:] = 0
        # the container stores f32 coordinates; keep the model on that grid
        coords = coords.astype(np.float32).astype(np.float64)
        layers.append((signs, coords, bits, group_sizes(count, group_size)))
    groups = Groups(*map(np.concatenate, zip(*layers)))
    meta = ModelMeta(int(rng.integers(0, 2**63)), rng.bytes(32).hex())
    return QuantModel(spec, groups, group_size, meta)


def models_equal(a: QuantModel, b: QuantModel) -> bool:
    return (a.group_size == b.group_size and a.meta == b.meta
            and groups_equal(a.groups, b.groups))


def header_bytes(model: QuantModel) -> int:
    """Bytes before the first layer's group count: the spec's header, then
    the u64 seed, the 32-byte config digest and the u16 group size."""
    return len(pack_header(MAGIC, VERSION, model.spec)) + 8 + 32 + 2


def one_group_model(column) -> QuantModel:
    """A 1-output dense model whose weights are one group holding the single
    sign column; the bias is a second, empty group."""
    column = np.asarray(column, dtype=np.int8)
    n = column.size
    spec = NetworkSpec([flatten(), softmax_dense(1)], input_length=n,
                       input_channels=1, class_count=1)
    signs = np.zeros((2, n, 1), dtype=np.int8)
    signs[0, :, 0] = column
    return QuantModel(spec, Groups(signs, [[1.0], [0.0]], [1, 0], [n, 1]), n)


def column_bytes(column) -> bytes:
    """The packed sign column of a one-group container: its last bytes, as the
    sign block ends the layer and the 0-bit bias group adds nothing to it."""
    return serialize_bytes(one_group_model(column))[-((len(column) + 7) // 8):]


class TestPacking:
    def test_eight_signs_one_byte(self):
        col = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=np.int8)
        assert column_bytes(col) == bytes([0b01001101])
        model = deserialize_bytes(serialize_bytes(one_group_model(col)))
        assert np.array_equal(model.groups.signs[0, :, 0], col)

    def test_lsb_first_layout(self):
        col = np.array([1, -1, -1, -1, -1, -1, -1, -1], dtype=np.int8)
        assert column_bytes(col) == b"\x01"
        col[0], col[7] = -1, 1
        assert column_bytes(col) == b"\x80"

    def test_padding_to_byte(self):
        col = np.ones(11, dtype=np.int8)
        assert column_bytes(col) == b"\xff\x07"
        model = deserialize_bytes(serialize_bytes(one_group_model(col)))
        assert np.array_equal(model.groups.signs[0, :, 0], col)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
    def test_round_trip(self, signs):
        col = np.array(signs, dtype=np.int8)
        model = deserialize_bytes(serialize_bytes(one_group_model(col)))
        assert np.array_equal(model.groups.signs[0, :, 0], col)


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
        signs, coords, bits = writable(model)
        signs[0], coords[0], bits[0] = 0, 0.0, 0
        model = with_arrays(model, signs, coords, bits)
        assert models_equal(model, deserialize_bytes(serialize_bytes(model)))

    def test_uniform_baseline_golden_digest(self):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, 11)
        assert hashlib.sha256(serialize_bytes(model)).hexdigest() == UNIFORM_ALQQ_SHA256

    def test_uniform_baseline_arrays_golden_digest(self):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, 11)
        assert arrays_sha256(model) == UNIFORM_ARRAYS_SHA256

    def test_many_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            model = random_model(rng)
            assert models_equal(model, deserialize_bytes(serialize_bytes(model)))


class TestSerializeRefuses:
    """The writer refuses what the loader would reject, naming the layer and
    group as the loader does."""

    @staticmethod
    def two_bit_model(column_1, coords, meta=None) -> QuantModel:
        """A one-layer model whose three weights are one 2-bit group, first
        column all +1, and whose bias is an empty group."""
        spec = NetworkSpec([flatten(), softmax_dense(1)], input_length=3,
                           input_channels=1, class_count=1)
        signs = np.zeros((2, 3, 2), dtype=np.int8)
        signs[0, :, 0] = 1
        signs[0, :, 1] = column_1
        return QuantModel(spec, Groups(signs, [coords, [0.0, 0.0]], [2, 0], [3, 1]), 3,
                          meta or ModelMeta())

    @pytest.mark.parametrize("column_1, coords, problem", [
        ([1, 1, 1], [1.0, 0.5], "duplicate base column 1"),
        ([1, 1, -1], [0.5, 1.0], "coordinates not descending"),
        ([1, 1, -1], [1.0, -0.5], "non-positive coordinate"),
        # positive as f64, zero as the f32 the container stores
        ([1, 1, -1], [1.0, 1e-50], "non-positive coordinate"),
        # finite as f64, infinite as f32
        ([1, 1, -1], [1e39, 1.0], "non-finite coordinate"),
        ([1, 1, -1], [np.nan, 1.0], "non-finite coordinate"),
    ])
    def test_group_the_loader_rejects(self, column_1, coords, problem):
        model = self.two_bit_model(column_1, coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContainerFormatError,
                               match=f"^layer 1 group 0: {problem}$") as err:
                serialize_bytes(model)
        assert err.value.offset is None

    @pytest.mark.parametrize("meta, problem", [
        (ModelMeta(config_digest="zz" * 32), "config digest must be 32 bytes of hex"),
        (ModelMeta(config_digest="00" * 31), "config digest must be 32 bytes of hex"),
        (ModelMeta(seed=-1), r"seed -1 is not in 0\.\.2\*\*64-1"),
        (ModelMeta(seed=2**64), rf"seed {2**64} is not in 0\.\.2\*\*64-1"),
    ])
    def test_meta_the_container_cannot_hold(self, meta, problem):
        with pytest.raises(ContainerFormatError, match=problem):
            serialize_bytes(self.two_bit_model([1, 1, -1], [1.0, 0.5], meta))

    def test_canonical_group_written(self):
        model = self.two_bit_model([1, 1, -1], [1.0, 0.5], ModelMeta(seed=2**64 - 1))
        assert models_equal(deserialize_bytes(serialize_bytes(model)), model)


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

    @pytest.mark.parametrize("spec, match", [
        (NetworkSpec([conv(3, 2, padding=1), pool(2, 2), flatten(), dense(3)],
                     input_length=16, input_channels=1, class_count=3),
         "softmax-dense classifier head"),
        (replace(small_spec(), class_count=4), "outputs 3 values, expected 4"),
    ])
    def test_invalid_spec_rejected(self, spec, match):
        blob = serialize_bytes(random_model(np.random.default_rng(8), spec))
        with pytest.raises(ShapeError, match=match) as err:
            deserialize_bytes(blob)
        # the descriptor follows the magic and u16 version
        assert err.value.offset == 6

    @pytest.mark.parametrize("bitwidth", [ENUM_BITWIDTH_LIMIT + 1, 255])
    def test_bitwidth_above_limit_rejected_at_header(self, bitwidth):
        model = random_model(np.random.default_rng(9), group_size=8)
        data = bytearray(serialize_bytes(model))
        # the first layer's group count, then its bitwidth array
        at = header_bytes(model) + 4
        assert data[at] == model.groups.bits[0]
        data[at] = bitwidth
        with pytest.raises(ContainerFormatError, match=f"group 0: bitwidth {bitwidth} "
                           f"exceeds {ENUM_BITWIDTH_LIMIT}") as err:
            deserialize_bytes(bytes(data))
        assert err.value.offset == at

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_versions_rejected(self, version):
        data = bytearray(serialize_bytes(random_model(np.random.default_rng(9))))
        assert data[4:6] == b"\x03\x00"
        data[4] = version
        with pytest.raises(ContainerFormatError,
                           match=f"unsupported version {version}") as err:
            deserialize_bytes(bytes(data))
        assert err.value.offset == 4

    def test_non_canonical_rejected(self):
        model = random_model(np.random.default_rng(6), group_size=8)
        # force a duplicate column pair into the first group
        signs, coords, bits = writable(model)
        signs = np.pad(signs, ((0, 0), (0, 0), (0, 2)))
        coords = np.pad(coords, ((0, 0), (0, 2)))
        signs[0] = 0
        signs[0, :, :2] = 1
        signs[0, -1, 1] = -1
        coords[0] = 0.0
        coords[0, :2] = [1.0, 0.5]
        bits[0] = 2
        model = with_arrays(model, signs, coords, bits)
        data = bytearray(serialize_bytes(model))
        # group count, bitwidths, the coordinate block, then group 0's first
        # column: one byte for its 8 values; the writer refuses equal
        # columns, so the second is made equal to the first in the bytes
        first = bits[layer_spans(model.spec, model.group_size)[0][1]]
        signs_at = header_bytes(model) + 4 + len(first) + 4 * int(first.sum())
        assert data[signs_at : signs_at + 2] == b"\xff\x7f"
        data[signs_at + 1] = data[signs_at]
        with pytest.raises(ContainerFormatError,
                           match="group 0: duplicate base column 1") as err:
            deserialize_bytes(bytes(data))
        assert err.value.offset == signs_at + 1

    @pytest.mark.parametrize("nan", [0x7FC00000, 0x7FA00000])  # quiet, signalling
    def test_nan_coordinate_rejected_without_warning(self, nan):
        model = one_group_model([1, -1, 1])
        data = bytearray(serialize_bytes(model))
        at = header_bytes(model) + 4 + 2  # group count, then both bitwidths
        data[at : at + 4] = nan.to_bytes(4, "little")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContainerFormatError,
                               match="group 0: non-finite coordinate") as err:
                deserialize_bytes(bytes(data))
        # the coordinate itself, the first of the coordinate block
        assert err.value.offset == at

    @pytest.mark.parametrize("index, value, problem", [
        (0, 0.0, "non-positive coordinate"),
        (0, -0.5, "non-positive coordinate"),
        (1, 2.0, "coordinates not descending"),
    ])
    def test_bad_coordinate_rejected_at_its_offset(self, index, value, problem):
        # one 2-bit group of three values, coordinates 1.0 and 0.5, then the
        # bias as an empty group
        spec = NetworkSpec([flatten(), softmax_dense(1)], input_length=3,
                           input_channels=1, class_count=1)
        signs = np.zeros((2, 3, 2), dtype=np.int8)
        signs[0] = [[1, 1], [-1, 1], [1, -1]]
        model = QuantModel(spec, Groups(signs, [[1.0, 0.5], [0.0, 0.0]], [2, 0], [3, 1]), 3)
        data = bytearray(serialize_bytes(model))
        at = header_bytes(model) + 4 + 2 + 4 * index
        data[at : at + 4] = np.float32(value).tobytes()
        with pytest.raises(ContainerFormatError, match=f"group 0: {problem}") as err:
            deserialize_bytes(bytes(data))
        assert err.value.offset == at

    @staticmethod
    def one_bit_groups(seed: int) -> tuple[bytearray, int]:
        """A container whose first layer holds 1-bit groups of 5 and 3 values;
        the offset of its coordinate block. The sign block follows it: one
        1-byte column per group."""
        model = random_model(np.random.default_rng(seed), group_size=5)
        first = layer_spans(model.spec, 5)[0][1]
        signs, coords, bits = writable(model)
        column = np.where(signs[first, :, :1] == 0, 0, 1)
        signs[first] = 0
        signs[first, :, :1] = column
        coords[first] = np.eye(1, coords.shape[1])
        bits[first] = 1
        model = with_arrays(model, signs, coords, bits)
        # group count, then the two bitwidths
        return bytearray(serialize_bytes(model)), header_bytes(model) + 4 + 2

    def test_nonzero_pad_bits_rejected(self):
        data, coords_at = self.one_bit_groups(11)
        column = coords_at + 8
        assert data[column] == 0b11111
        data[column] |= 0b10000000
        with pytest.raises(ContainerFormatError, match="group 0: non-zero pad bits in "
                           "base column 0") as err:
            deserialize_bytes(bytes(data))
        assert err.value.offset == column

    def test_last_group_coordinate_fault_reported_before_cut_sign_block(self):
        data, coords_at = self.one_bit_groups(12)
        # group 1's coordinate, the last of the block, then a cut inside the
        # sign block
        data[coords_at + 4 : coords_at + 8] = np.float32(-1.0).tobytes()
        with pytest.raises(ContainerFormatError,
                           match="group 1: non-positive coordinate") as err:
            deserialize_bytes(bytes(data[: coords_at + 8 + 1]))
        assert err.value.offset == coords_at + 4

    def test_bitwidth_reported_before_cut_coordinate_block(self):
        data, coords_at = self.one_bit_groups(12)
        # group 1's bitwidth, the byte before the coordinate block, then a
        # cut inside that block
        data[coords_at - 1] = ENUM_BITWIDTH_LIMIT + 1
        with pytest.raises(ContainerFormatError, match=f"group 1: bitwidth "
                           f"{ENUM_BITWIDTH_LIMIT + 1} exceeds") as err:
            deserialize_bytes(bytes(data[: coords_at + 2]))
        assert err.value.offset == coords_at - 1

    @staticmethod
    def one_value_groups() -> tuple[QuantModel, bytearray]:
        """289 one-value groups of a 1-bit dense layer; the 17 zero biases
        are 0-bit groups with empty records."""
        spec = NetworkSpec([flatten(), softmax_dense(17)], input_length=16)
        model = uniform_baseline(init_params(spec, 0), 1, 1)
        return model, bytearray(serialize_bytes(model))

    @pytest.mark.parametrize("group_size", [0, 290, 65535])
    def test_group_size_out_of_range_rejected(self, group_size):
        # the layer has 289 values: a larger group would pad every array
        # past the layer's own size
        model, data = self.one_value_groups()
        at = header_bytes(model) - 2  # the u16 group size
        data[at : at + 2] = group_size.to_bytes(2, "little")
        with pytest.raises(ContainerFormatError,
                           match=f"group size {group_size} outside 1..289") as err:
            deserialize_bytes(bytes(data))
        assert err.value.offset == at

    def test_partition_checked_before_groups_unpack(self):
        # at the largest group size, 289, the partition is one group, so the
        # 289 declared groups are rejected at their count, before any is
        # unpacked to 289 positions
        model, data = self.one_value_groups()
        at = header_bytes(model) - 2  # the u16 group size
        data[at : at + 2] = (289).to_bytes(2, "little")

        def rejected():
            with pytest.raises(ContainerFormatError, match="layer 1: 289 groups, "
                               "partition of 289 values expects 1") as err:
                deserialize_bytes(bytes(data))
            assert err.value.offset == at + 2 == 84

        peak = traced_peak(rejected)
        assert len(data) == 1737
        assert peak < 1 << 20

    def test_missing_groups_rejected_at_layer_end(self):
        model, data = self.one_value_groups()
        # the layer ends in 272 coordinates of the 1-bit weights, then their
        # 272 one-byte columns; the 17 bias groups hold neither
        signs_at = len(data) - 272
        coords_at = signs_at - 4 * 272
        for cut, block, at in [(5, "sign", signs_at), (272 + 5, "coordinate", coords_at)]:
            with pytest.raises(ContainerFormatError,
                               match=f"Softmax: truncated {block} block") as err:
                deserialize_bytes(bytes(data[:-cut]))
            assert err.value.offset == at


def layer_parts(model: QuantModel) -> list[Groups]:
    """Each layer's groups, cut to the layer's widest group."""
    return [model.groups.trimmed(span) for _, span in layer_spans(model.spec, model.group_size)]


class TestModelPartition:
    """A model holds exactly the spec's partition at its group size, so
    every model that can be built writes a container that loads."""

    def test_models_the_loader_rejects_are_not_built(self):
        network = init_params(tiny_spec(), 3)
        model = uniform_baseline(network, 2, 16)
        conv, hidden, out = layer_parts(model)
        assert QuantModel(model.spec, concat([conv, hidden, out]), 16).group_size == 16
        for groups, group_size in [
            (concat([conv, hidden]), 16),  # the last layer missing
            (concat([conv, out, hidden]), 16),  # two layers swapped
            (uniform_baseline(network, 2, 8).groups, 16),  # cut at group size 8
        ]:
            with pytest.raises(ConfigError, match="not the"):
                QuantModel(model.spec, groups, group_size)

    def test_groups_above_the_bitwidth_limit_are_not_built(self):
        # the loader rejects a bitwidth above the limit, and the greedy init
        # gives this layer's 40-value group every bit it is allowed
        spec = NetworkSpec([flatten(), softmax_dense(3)], input_length=40, class_count=3)
        network = init_params(spec, 0)
        assert uniform_baseline(network, ENUM_BITWIDTH_LIMIT, 40).groups.bits.max() == 16
        with pytest.raises(ConfigError, match="a 17-bit group exceeds the 16-bit limit"):
            uniform_baseline(network, ENUM_BITWIDTH_LIMIT + 1, 40)

    def test_group_size_above_largest_layer_is_not_built(self):
        # no container declares such a group size, so no model holds one
        spec = NetworkSpec([flatten(), softmax_dense(17)], input_length=16)
        model = uniform_baseline(init_params(spec, 0), 16, 289)
        with pytest.raises(ConfigError, match=r"group size 65535 outside 1\.\.289"):
            uniform_baseline(init_params(spec, 0), 16, 65535)
        with pytest.raises(ConfigError, match=r"group size 290 outside 1\.\.289"):
            QuantModel(spec, model.groups, 290)

    @settings(max_examples=80, deadline=None)
    @given(spec=valid_specs(), group_size=st.integers(1, 40), other=st.integers(1, 40),
           arrangement=st.sampled_from(["keep", "drop last", "reverse", "regroup"]))
    def test_every_model_built_loads(self, spec, group_size, other, arrangement):
        network = init_params(spec, 0)
        largest = max(row.count for row in layer_table(spec))
        try:
            parts = layer_parts(uniform_baseline(network, 2, group_size))
            if arrangement == "drop last":
                assume(len(parts) > 1)
                parts = parts[:-1]
            elif arrangement == "reverse":
                parts = parts[::-1]
            elif arrangement == "regroup":
                parts = layer_parts(uniform_baseline(network, 2, other))
            model = QuantModel(spec, concat(parts), group_size)
        except ConfigError:
            assert arrangement != "keep" or group_size > largest
            return
        blob = serialize_bytes(model)
        assert serialize_bytes(deserialize_bytes(blob)) == blob


# version-3 containers the loader fuzz tests mutate: two specs, group sizes
# that do and do not divide the layers' parameter counts
FUZZ_BLOBS = [
    serialize_bytes(random_model(np.random.default_rng(seed), spec(), group_size))
    for seed, (spec, group_size) in enumerate(
        [(small_spec, 3), (small_spec, 8), (tiny_spec, 11), (tiny_spec, 16)])
]


def assert_rejected_or_round_trips(data: bytes) -> None:
    """``deserialize_bytes(data)`` raises with an offset inside ``data``, or
    loads a model that re-serializes to ``data`` byte for byte."""
    try:
        model = deserialize_bytes(data)
    except (ContainerFormatError, ShapeError) as err:
        assert err.offset is not None and 0 <= err.offset <= len(data)
    else:
        assert serialize_bytes(model) == data


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(blob=st.sampled_from(FUZZ_BLOBS), cut=st.floats(0, 1, exclude_max=True))
    def test_truncation(self, blob, cut):
        assert_rejected_or_round_trips(blob[: int(cut * len(blob))])

    @settings(max_examples=300, deadline=None)
    @given(blob=st.sampled_from(FUZZ_BLOBS), at=st.floats(0, 1, exclude_max=True))
    def test_single_bit_flip(self, blob, at):
        bit = int(at * 8 * len(blob))
        data = bytearray(blob)
        data[bit // 8] ^= 1 << (bit % 8)
        assert_rejected_or_round_trips(bytes(data))

    @settings(max_examples=200, deadline=None)
    @given(head=st.sampled_from(FUZZ_BLOBS), tail=st.sampled_from(FUZZ_BLOBS),
           i=st.floats(0, 1), j=st.floats(0, 1))
    def test_splice(self, head, tail, i, j):
        data = head[: int(i * len(head))] + tail[int(j * len(tail)) :]
        assert_rejected_or_round_trips(data)


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
        spans = layer_spans(model.spec, model.group_size)
        for row, (layer, span) in zip(report.rows, spans):
            bits = sum(b.size for b, _ in groups_of(model.groups.trimmed(span)))
            assert (row.name, row.params) == (layer.name, layer.count)
            assert row.base_bits == bits
            assert row.base_bits == int(np.floor(row.params * row.avg_bitwidth + 0.5))
        assert report.coord_overhead_bits == 32 * int(model.groups.bits.sum())
        assert report.container_bits == len(serialize_bytes(model)) * 8

    def test_container_bits_match_serialized_size(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            model = random_model(rng)
            assert memory_report(model).container_bits == 8 * len(serialize_bytes(model))

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
        for _, span in layer_spans(model.spec, model.group_size):
            group_header_bits += 32  # group count u32
            for bases, _ in groups_of(model.groups.trimmed(span)):
                size, bitwidth = bases.shape
                group_header_bits += 8  # u8 bitwidth
                coord_bits += bitwidth * 32
                payload_bits += size * bitwidth
                padding_bits += bitwidth * (((size + 7) // 8) * 8 - size)
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
        model = model_of(init_groups(rng.normal(size=99), 16, 3))
        scores, _ = score_coordinates(model, None, "magnitude")
        prev = np.inf
        for rate in [0.0, 0.3, 0.6, 1.0]:
            pruned = prune_coordinates(model.groups, scores, rate=rate)
            bits = memory_report(replace(model, groups=pruned)).total_base_bits
            assert bits <= prev
            prev = bits

    def test_fully_pruned_model(self):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        model = replace(model, groups=empty_groups(model.groups))
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

    def test_format_table_prints_container_bytes(self):
        model = random_model(np.random.default_rng(7))
        report = memory_report(model)
        size = len(serialize_bytes(model))
        table = report.format_table()
        rate = f"{report.compression_rate:.2f}x (sign bits only)"
        file_rate = f"{report.total_params * 4 / size:.2f}x smaller than 32-bit weights"
        assert f"Compression vs 32-bit baseline: {rate}\n" in table
        assert f"Container file: {size:,} B, {file_rate}\n" in table

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
