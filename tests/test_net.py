import hashlib
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqecg import net as _net
from alqecg.data import Dataset, EcgRecord, RECORD_SAMPLES, synth_generate, normalize_dataset
from alqecg.errors import ContainerFormatError, NumericError, ShapeError, TrainingError
from alqecg.net import (
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    conv,
    default_ecgnet_spec,
    dense,
    flatten,
    flatten_params,
    init_params,
    load_checkpoint,
    out_length,
    param_counts,
    parameterized_layers,
    pool,
    predict_batch,
    propagate_shapes,
    save_checkpoint,
    softmax_dense,
    train,
    unflatten_params,
    validate_spec,
)
from conftest import tiny_spec

EXPECTED_COUNTS = {
    "Conv1D_1": 136, "Conv1D_2": 1164, "Conv1D_3": 3488, "Conv1D_4": 14400,
    "Conv1D_5": 20544, "Conv1D_6": 12352, "Conv1D_7": 13896,
    "Dense": 13888, "Softmax": 1105,
}


class TestArchitecture:
    def test_layer_inventory(self):
        spec = default_ecgnet_spec()
        kinds = [l.kind for l in spec.layers]
        assert kinds.count("conv1d") == 7
        assert kinds.count("maxpool1d") == 7
        assert kinds.count("flatten") == 1
        assert kinds.count("dense") == 1
        assert kinds.count("softmax-dense") == 1
        assert len(spec.layers) == 17

    def test_length_propagation(self):
        spec = default_ecgnet_spec()
        lengths = [s[1] for s in propagate_shapes(spec)]
        assert lengths == [1800, 449, 224, 111, 111, 54, 54, 26, 26, 13, 13, 6, 6, 3,
                           216, 64, 17]

    def test_param_counts(self):
        rows, total = param_counts(default_ecgnet_spec())
        assert dict(rows) == EXPECTED_COUNTS
        assert total == 80973

    def test_pool_padding_rejected(self):
        with pytest.raises(ShapeError, match="pool padding"):
            validate_spec(padded_pool_spec())

    def test_param_count_on_network(self):
        network = init_params(default_ecgnet_spec(), 0)
        rows, total = param_counts(network.spec)
        assert total == 80973
        got = sum(p[0].size + p[1].size for p in network.params if p is not None)
        assert got == total


def padded_pool_spec() -> NetworkSpec:
    # the padded pool passes shape propagation but has no forward pass
    return NetworkSpec(
        [conv(3, 2), LayerSpec(_net.POOL, kernel=2, stride=2, padding=1), flatten(),
         softmax_dense(3)],
        input_length=8, input_channels=1, class_count=3,
    )


def patch_pool_padding(blob: bytes, layer: int, header: int) -> tuple[bytes, int]:
    """Set the padding of descriptor ``layer`` to 1; returns (blob, its offset).

    ``header`` is the byte count before the network descriptor.
    """
    at = header + 8 + 14 * layer
    padding_at = at + 7  # after u8 kind, u16 kernel, units, stride
    patched = blob[:padding_at] + (1).to_bytes(2, "little") + blob[padding_at + 2 :]
    return patched, at


class TestOutLength:
    @pytest.mark.parametrize(
        "args,expected",
        [((3600, 16, 2, 7), 1800), ((1800, 8, 4, 0), 449), ((449, 12, 2, 5), 224),
         ((111, 5, 2, 0), 54), ((100, 1, 1, 0), 100)],
    )
    def test_values(self, args, expected):
        assert out_length(*args) == expected

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            out_length(4, 8, 1, 1)

    def test_bad_params(self):
        with pytest.raises(ShapeError):
            out_length(10, 0, 1, 0)


class TestForward:
    def test_probabilities_sum_to_one(self):
        network = init_params(tiny_spec(), 0)
        rng = np.random.default_rng(1)
        probs = predict_batch(network, [rng.normal(size=8) for _ in range(5)])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_zero_network_uniform(self):
        spec = default_ecgnet_spec()
        network = init_params(spec, 0)
        network = Network(
            spec,
            [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1]))
             for p in network.params],
        )
        rec = EcgRecord(np.zeros(RECORD_SAMPLES), 0)
        probs = predict_batch(network, [rec])[0]
        np.testing.assert_allclose(probs, np.full(17, 1 / 17), atol=1e-12)

    def test_identity_kernel_conv(self):
        # width-1 kernel with weight 1 and zero bias passes the signal through
        x = np.random.default_rng(0).normal(size=(2, 1, 9))
        w = np.ones((1, 1, 1))
        b = np.zeros(1)
        affine = _net._fp_affine(Network(NetworkSpec([conv(1, 1)], input_length=9), [(w, b)]))
        y = affine(0, _net._windows(x, 1, 1, 0))
        np.testing.assert_array_equal(y, x)

    def test_nonfinite_raises_with_layer(self):
        network = init_params(tiny_spec(), 0)
        w, b = network.params[0]
        w[0, 0, 0] = np.inf
        with pytest.raises(NumericError, match="layer 0"):
            predict_batch(network, [np.ones(8)])

    def test_channel_permutation_equivariance(self):
        # permuting conv filters and the matching dense input block is a no-op
        spec = tiny_spec()
        network = init_params(spec, 3)
        x = np.random.default_rng(2).normal(size=8)
        base = predict_batch(network, [x])[0]

        perm = [1, 0]
        w0, b0 = network.params[0]
        w3, b3 = network.params[3]
        t = 4  # pooled length per channel
        w3_perm = w3.reshape(4, 2, t)[:, perm, :].reshape(4, 2 * t)
        permuted = Network(
            spec,
            [(w0[perm], b0[perm]), None, None, (w3_perm, b3), network.params[4]],
        )
        np.testing.assert_allclose(predict_batch(permuted, [x])[0], base, atol=1e-12)


def ref_pool_fwd(x, kernel, stride):
    """Window max and first-max offset over a strided window view (old code)."""
    win = _net._windows(x, kernel, stride, 0)
    return win.max(axis=3), win.argmax(axis=3)


def ref_pool_bwd(dy, arg, x_shape, kernel, stride):
    """Pool input gradient as one masked add per window offset (old code)."""
    dx = np.zeros(x_shape)
    t = dy.shape[2]
    for j in range(kernel):
        dx[:, :, j : j + stride * t : stride] += dy * (arg == j)
    return dx


class TestPooling:
    # overlapping windows, kernel == stride, and a length the windows do not cover
    @pytest.mark.parametrize("kernel,stride,length",
                             [(8, 4, 1800), (5, 2, 111), (2, 2, 13), (4, 4, 37), (3, 1, 9)])
    def test_bitwise_equal_to_window_view(self, kernel, stride, length):
        rng = np.random.default_rng(kernel * 100 + stride)
        for trial in range(3):
            # ReLU outputs, rounded so positive values tie too
            x = np.maximum(np.round(rng.normal(size=(3, 4, length)), trial), 0.0)
            want, want_arg = ref_pool_fwd(x, kernel, stride)
            got = _net._pool_max(x, kernel, stride)
            got2, arg = _net._pool_max(x, kernel, stride, keep_arg=True)
            assert got.tobytes() == want.tobytes()
            assert got2.tobytes() == want.tobytes()
            assert arg.dtype == np.min_scalar_type(kernel - 1)
            np.testing.assert_array_equal(arg, want_arg)
            dy = rng.normal(size=want.shape)
            dy[rng.random(dy.shape) < 0.2] = -0.0
            dx = _net._pool_bwd(dy, arg, x.shape, kernel, stride)
            assert dx.tobytes() == ref_pool_bwd(dy, want_arg, x.shape, kernel, stride).tobytes()

    def test_inference_forward_keeps_no_caches(self, monkeypatch):
        calls = []
        real = _net._pool_max

        def spy(x, kernel, stride, keep_arg=False):
            calls.append(keep_arg)
            return real(x, kernel, stride, keep_arg)

        monkeypatch.setattr(_net, "_pool_max", spy)
        network = init_params(default_ecgnet_spec(), 0)
        records = [np.random.default_rng(1).normal(size=RECORD_SAMPLES)]
        _net.predict_batch(network, records)
        _net.batch_loss(network, records, [0])
        assert calls == [False] * 14
        _net.loss_gradients(network, records, [0])
        assert calls[14:] == [True] * 7


class TestGradients:
    def test_first_layer_input_gradient_skipped(self, monkeypatch):
        calls = []
        real = _net._conv_input_grad

        def spy(dy, *args):
            calls.append(dy.shape)
            return real(dy, *args)

        monkeypatch.setattr(_net, "_conv_input_grad", spy)
        network = init_params(default_ecgnet_spec(), 0)
        rng = np.random.default_rng(2)
        _, grads = _net.loss_gradients(network, [rng.normal(size=RECORD_SAMPLES)], [3])
        # conv 2..7 pass their gradient down; conv 1's input gradient is unused
        assert len(calls) == 6
        assert calls[-1][1] == 12
        assert grads[0].shape == (136,) and np.all(np.isfinite(grads[0]))


    def test_loss_is_batch_loss(self):
        network = init_params(tiny_spec(), 12)
        rng = np.random.default_rng(5)
        records = [rng.normal(size=8) for _ in range(7)]
        labels = [0, 1, 2, 2, 1, 0, 1]
        loss, _ = _net.loss_gradients(network, records, labels)
        assert loss == _net.batch_loss(network, records, labels)

    def test_matches_central_differences(self):
        spec = tiny_spec()
        network = init_params(spec, 11)
        _, total = param_counts(spec)
        assert total <= 200
        rng = np.random.default_rng(4)
        records = [rng.normal(size=8) for _ in range(6)]
        labels = np.array([0, 1, 2, 0, 1, 2])
        _, grads = _net.loss_gradients(network, records, labels)

        step = 1e-4
        for idx, _name in parameterized_layers(spec):
            flat = flatten_params(network, idx)
            analytic = grads[idx]
            for j in range(flat.size):
                bumped = flat.copy()
                bumped[j] += step
                plus = _loss_with(network, idx, bumped, records, labels)
                bumped[j] -= 2 * step
                minus = _loss_with(network, idx, bumped, records, labels)
                fd = (plus - minus) / (2 * step)
                denom = max(abs(fd), abs(analytic[j]), 1e-8)
                assert abs(fd - analytic[j]) / denom <= 1e-3


def _loss_with(network, layer_index, flat, records, labels):
    params = list(network.params)
    params[layer_index] = unflatten_params(network.spec, layer_index, flat)
    return _net.batch_loss(Network(network.spec, params), records, labels)


class TestFlattenParams:
    def test_lengths(self):
        network = init_params(default_ecgnet_spec(), 0)
        assert flatten_params(network, 0).size == 136

    def test_round_trip_bitwise(self):
        network = init_params(default_ecgnet_spec(), 5)
        for idx, _ in parameterized_layers(network.spec):
            flat = flatten_params(network, idx)
            w, b = unflatten_params(network.spec, idx, flat)
            assert np.array_equal(w, network.params[idx][0])
            assert np.array_equal(b, network.params[idx][1])

    def test_dense_layout(self):
        spec = NetworkSpec(
            [flatten(), softmax_dense(2)], input_length=2, input_channels=1, class_count=2
        )
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([5.0, 6.0])
        network = Network(spec, [None, (w, b)])
        np.testing.assert_array_equal(
            flatten_params(network, 1), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        )

    def test_unparameterized_layer(self):
        network = init_params(default_ecgnet_spec(), 0)
        with pytest.raises(ShapeError):
            flatten_params(network, 1)


from dataclasses import dataclass


@dataclass
class _RawRec:
    samples: np.ndarray
    label: int


@dataclass
class _RawSet:
    records: list


def _toy_training_set(n_per_class=6):
    rng = np.random.default_rng(0)
    recs = []
    for c in range(3):
        base = np.zeros(8)
        base[c * 2] = 2.0
        for _ in range(n_per_class):
            recs.append(base + 0.01 * rng.normal(size=8))
    labels = [c for c in range(3) for _ in range(n_per_class)]
    return recs, np.array(labels)


class TestTrain:
    def _dataset(self):
        ds = synth_generate(4, seed=3, noise_sigma=0.0)
        ds, _ = normalize_dataset(ds)
        return ds

    def test_loss_decreases(self):
        ds = self._dataset()
        network = init_params(default_ecgnet_spec(), 0)
        result = train(network, ds, TrainConfig(epochs=20, batch_size=17, seed=1))
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_zero_learning_rate_is_noop(self):
        ds = self._dataset()
        network = init_params(default_ecgnet_spec(), 2)
        for opt in ("adam", "sgd"):
            result = train(
                network, ds,
                TrainConfig(epochs=1, batch_size=32, learning_rate=0.0, seed=3,
                            optimizer=opt),
            )
            for before, after in zip(network.params, result.network.params):
                if before is None:
                    continue
                assert np.array_equal(before[0], after[0])
                assert np.array_equal(before[1], after[1])

    def test_deterministic(self):
        ds = self._dataset()
        network = init_params(default_ecgnet_spec(), 2)
        config = TrainConfig(epochs=2, batch_size=32, seed=9)
        a = train(network, ds, config)
        b = train(network, ds, config)
        assert a.epoch_losses == b.epoch_losses
        for pa, pb in zip(a.network.params, b.network.params):
            if pa is None:
                continue
            assert np.array_equal(pa[0], pb[0])
            assert np.array_equal(pa[1], pb[1])

    def test_does_not_mutate_input(self):
        ds = self._dataset()
        network = init_params(default_ecgnet_spec(), 2)
        snapshot = [None if p is None else (p[0].copy(), p[1].copy()) for p in network.params]
        train(network, ds, TrainConfig(epochs=1, batch_size=64, seed=0))
        for before, now in zip(snapshot, network.params):
            if before is None:
                continue
            assert np.array_equal(before[0], now[0])

    def test_empty_dataset(self):
        network = init_params(default_ecgnet_spec(), 0)
        with pytest.raises(TrainingError):
            train(network, Dataset([]), TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_names_epoch(self):
        recs, labels = _toy_training_set()
        network = init_params(tiny_spec(), 0)
        raw = _RawSet([_RawRec(r, int(l)) for r, l in zip(recs, labels)])
        with pytest.raises(TrainingError, match="epoch 0"):
            train(network, raw,
                  TrainConfig(epochs=1, batch_size=4, learning_rate=1e200, optimizer="sgd"))


def sha256_of(*arrays) -> str:
    """SHA-256 of the float64 bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def random_records(n: int, seed: int) -> list[EcgRecord]:
    rng = np.random.default_rng(seed)
    return [EcgRecord(rng.normal(size=RECORD_SAMPLES), int(rng.integers(17)))
            for _ in range(n)]


def golden_network() -> Network:
    """Padded, strided convs, overlapping pools and a dropout dense layer.

    Its outputs keep their bytes at 1 to 4 BLAS threads; the default
    network's logits do not (they move in the last bit)."""
    spec = NetworkSpec([
        conv(16, 4, stride=4, padding=7), pool(4, 4),
        conv(5, 6, padding=2), pool(3, 2),
        flatten(), dense(12, dropout_rate=0.1), softmax_dense(17)])
    validate_spec(spec)
    return init_params(spec, 21)


class TestGoldenDigests:
    """fp outputs pinned to the bytes of the code before the fp and
    bit-plane passes shared one layer walk."""

    def test_logits(self):
        logits = _net.logits_batch(golden_network(), random_records(6, 22))
        assert sha256_of(logits) == (
            "04ef573baba59e0656fe2bde7b1da98d00005e55a865e802291639a9678f9a27")

    def test_loss_gradients(self):
        records = random_records(6, 22)
        loss, grads = _net.loss_gradients(golden_network(), records,
                                          [r.label for r in records])
        assert sha256_of([loss], *[g for g in grads if g is not None]) == (
            "ecdb5b29e08637230fe23a6fa303190c0684576fa3ab1082984e0c3a9c98153d")

    @pytest.mark.parametrize("optimizer, rate, digest", [
        ("adam", 1e-3, "863ab6f628526c3f20c2f678debcd3d03c7c88a4672a80b08c52751022c34669"),
        ("sgd", 0.01, "c98ec8a4f801ff4a525e069452e82649f59515665b3ccc35f3f980b1f473126a"),
    ])
    def test_train_epoch(self, optimizer, rate, digest):
        network = golden_network()
        result = train(network, Dataset(random_records(10, 23)),
                       TrainConfig(epochs=1, batch_size=4, seed=24,
                                   optimizer=optimizer, learning_rate=rate))
        params = [flatten_params(result.network, i)
                  for i, _ in parameterized_layers(network.spec)]
        assert sha256_of(result.epoch_losses, *params) == digest


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        network = init_params(default_ecgnet_spec(), 8)
        path = tmp_path / "m.alqf"
        save_checkpoint(network, path)
        back = load_checkpoint(path)
        assert [l.kind for l in back.spec.layers] == [l.kind for l in network.spec.layers]
        for idx, _ in parameterized_layers(network.spec):
            expect = flatten_params(network, idx).astype(np.float32)
            got = flatten_params(back, idx).astype(np.float32)
            assert np.array_equal(expect, got)

    def test_save_load_save_identical(self, tmp_path):
        network = init_params(default_ecgnet_spec(), 8)
        p1, p2 = tmp_path / "a.alqf", tmp_path / "b.alqf"
        save_checkpoint(network, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.alqf"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ContainerFormatError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        network = init_params(tiny_spec(), 0)
        path = tmp_path / "m.alqf"
        save_checkpoint(network, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ContainerFormatError, match="truncated"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected_at_block_offset(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "m.alqf"
        save_checkpoint(init_params(spec, 0), path)
        # blocks follow magic, version, the 8-byte header and 14-byte descriptors
        rows, _ = param_counts(spec)
        block = 6 + 8 + 14 * len(spec.layers) + 4 * rows[0][1]
        # quiet NaN, infinity and a signalling NaN, which must not warn
        for bad in (0x7FC00000, 0x7F800000, 0x7FA00000):
            blob = bytearray(path.read_bytes())
            at = block + 4 * 5  # sixth value of the second block
            blob[at : at + 4] = bad.to_bytes(4, "little")
            path.write_bytes(bytes(blob))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContainerFormatError, match="Dense: non-finite") as err:
                    load_checkpoint(path)
            assert err.value.offset == block

    @pytest.mark.parametrize("spec, match", [
        (NetworkSpec([conv(3, 2, padding=1), pool(2, 2), flatten(), dense(3)],
                     input_length=8, input_channels=1, class_count=3),
         "softmax-dense classifier head"),
        (replace(tiny_spec(3), class_count=4), "outputs 3 values, expected 4"),
        *[(NetworkSpec([flatten(), dense(3, dropout_rate=rate), softmax_dense(3)],
                       input_length=4, input_channels=1, class_count=3),
           r"layer 1: dropout rate .* not in \[0, 1\)")
          for rate in (float("nan"), 1.0, -0.5)],
    ])
    def test_invalid_spec_rejected_at_load(self, tmp_path, spec, match):
        path = tmp_path / "m.alqf"
        save_checkpoint(init_params(spec, 0), path)
        with pytest.raises(ShapeError, match=match) as err:
            load_checkpoint(path)
        # the descriptor follows the magic and u16 version
        assert err.value.offset == 6

    def test_pool_padding_rejected_at_descriptor_offset(self, tmp_path):
        path = tmp_path / "m.alqf"
        save_checkpoint(init_params(tiny_spec(), 0), path)
        # tiny_spec: conv, pool, ...; the header is magic + u16 version
        blob, at = patch_pool_padding(path.read_bytes(), 1, 6)
        path.write_bytes(blob)
        with pytest.raises(ContainerFormatError, match="pool padding") as err:
            load_checkpoint(path)
        assert err.value.offset == at


def checkpoint_bytes(network: Network) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.alqf"
        save_checkpoint(network, path)
        return path.read_bytes()


# checkpoints the loader fuzz tests mutate: conv, pool, dense and classifier
# layers, strided and padded
FUZZ_CHECKPOINTS = [
    checkpoint_bytes(init_params(spec, seed)) for seed, spec in enumerate([
        tiny_spec(),
        tiny_spec(5),
        NetworkSpec([conv(4, 3, stride=2, padding=2), pool(3, 2), conv(2, 2),
                     flatten(), dense(3, dropout_rate=0.5), softmax_dense(2)],
                    input_length=20, input_channels=2, class_count=2),
    ])
]


def assert_checkpoint_rejected_or_round_trips(data: bytes) -> None:
    """``load_checkpoint`` of ``data`` raises with an offset inside it, or
    loads a network that ``save_checkpoint`` writes back as ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.alqf"
        path.write_bytes(data)
        try:
            network = load_checkpoint(path)
        except (ContainerFormatError, ShapeError) as err:
            assert err.offset is not None and 0 <= err.offset <= len(data)
        else:
            assert checkpoint_bytes(network) == data


class TestCheckpointLoaderFuzz:
    @settings(max_examples=100, deadline=None)
    @given(blob=st.sampled_from(FUZZ_CHECKPOINTS), cut=st.floats(0, 1, exclude_max=True))
    def test_truncation(self, blob, cut):
        assert_checkpoint_rejected_or_round_trips(blob[: int(cut * len(blob))])

    @settings(max_examples=200, deadline=None)
    @given(blob=st.sampled_from(FUZZ_CHECKPOINTS), at=st.floats(0, 1, exclude_max=True))
    def test_single_bit_flip(self, blob, at):
        bit = int(at * 8 * len(blob))
        data = bytearray(blob)
        data[bit // 8] ^= 1 << (bit % 8)
        assert_checkpoint_rejected_or_round_trips(bytes(data))

    @settings(max_examples=150, deadline=None)
    @given(head=st.sampled_from(FUZZ_CHECKPOINTS), tail=st.sampled_from(FUZZ_CHECKPOINTS),
           i=st.floats(0, 1), j=st.floats(0, 1))
    def test_splice(self, head, tail, i, j):
        assert_checkpoint_rejected_or_round_trips(
            head[: int(i * len(head))] + tail[int(j * len(tail)) :])
