import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqecg import net as _net
from alqecg.bitpack import deserialize_bytes, serialize_bytes
from alqecg.data import Dataset, RECORD_SAMPLES, synth_generate, normalize_dataset
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
    validate_spec,
)
from alqecg.quantizer import dequantized_network, uniform_baseline
from conftest import noise_dataset, tiny_spec, traced_peak

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


@st.composite
def valid_specs(draw) -> NetworkSpec:
    """Specs that validate: convs and pools sized to their input, a flatten,
    hidden dense layers and the classifier head."""
    channels, length = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    layers, at = [], length
    for kind in draw(st.lists(st.sampled_from([_net.CONV, _net.POOL]), max_size=4)):
        padding = draw(st.integers(0, 2)) if kind == _net.CONV else 0
        kernel = draw(st.integers(1, min(5, at + 2 * padding)))
        stride = draw(st.integers(1, 3))
        layers.append(conv(kernel, draw(st.integers(1, 4)), stride, padding)
                      if kind == _net.CONV else pool(kernel, stride))
        at = out_length(at, kernel, stride, padding)
    layers.append(flatten())
    layers += [dense(draw(st.integers(1, 5))) for _ in range(draw(st.integers(0, 2)))]
    classes = draw(st.integers(1, 4))
    spec = NetworkSpec(layers + [softmax_dense(classes)], length, channels, classes)
    validate_spec(spec)
    return spec


class TestLayerTable:
    @settings(max_examples=60, deadline=None)
    @given(spec=valid_specs())
    def test_rows_match_the_forward_walk_and_the_parameters(self, spec):
        table = _net.layer_table(spec)
        network = init_params(spec, 0)
        caches = []
        x = np.zeros((2, spec.input_channels, spec.input_length))
        logits = _net._forward_batch(spec, x, _net._fp_affine(network), caches=caches)
        # each layer's output is the next layer's cached input
        after = [c["x_shape"] for c in caches[1:]] + [logits.shape]
        assert len(table) == len(after) == len(spec.layers)
        for i, (row, shape, pair) in enumerate(zip(table, after, network.params)):
            assert row.index == i
            assert row.shape == (shape[1:] if len(shape) == 3 else (1, shape[1]))
            if pair is None:
                assert (row.name, row.weights, row.count) == (None, None, 0)
            else:
                assert row.weights == pair[0].shape
                assert row.count == pair[0].size + pair[1].size

    def test_each_loader_and_rebuild_builds_one_table(self, tmp_path, monkeypatch):
        network = init_params(default_ecgnet_spec(), 0)
        model = uniform_baseline(network, 2, 16)
        blob = serialize_bytes(model)
        save_checkpoint(network, tmp_path / "m.alqf")
        builds = []
        real = _net.layer_table

        def spy(spec):
            builds.append(spec)
            return real(spec)

        monkeypatch.setattr(_net, "layer_table", spy)
        for call in (lambda: dequantized_network(model),
                     lambda: load_checkpoint(tmp_path / "m.alqf"),
                     lambda: deserialize_bytes(blob)):
            builds.clear()
            call()
            assert len(builds) == 1


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
        probs = predict_batch(network, np.zeros((1, RECORD_SAMPLES)))[0]
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


def direct_conv(x, w, b, stride, padding):
    """Conv output, weight gradient and input gradient as a direct loop over
    (channel c, tap k, output position t), vectorized over records and
    output channels only. Returns a function of the output gradient."""
    bsz, c_in, length = x.shape
    n_out, _, kernel = w.shape
    xp = np.zeros((bsz, c_in, length + 2 * padding))
    xp[:, :, padding : padding + length] = x
    positions = (length + 2 * padding - kernel) // stride + 1
    y = np.zeros((bsz, n_out, positions)) + b[:, None]
    for c in range(c_in):
        for k in range(kernel):
            for t in range(positions):
                y[:, :, t] += xp[:, None, c, t * stride + k] * w[:, c, k]

    def backward(dy):
        dw, dxp = np.zeros_like(w), np.zeros_like(xp)
        for c in range(c_in):
            for k in range(kernel):
                for t in range(positions):
                    dw[:, c, k] += dy[:, :, t].T @ xp[:, c, t * stride + k]
                    dxp[:, c, t * stride + k] += dy[:, :, t] @ w[:, c, k]
        return dw, dy.sum(axis=(0, 2)), dxp[:, :, padding : padding + length]

    return y, backward


class TestConvKernels:
    """The forward, weight-gradient and input-gradient kernels of a conv
    layer against ``direct_conv``."""

    @pytest.mark.parametrize("bsz, c_in, n_out, kernel, stride, padding, length", [
        (1, 1, 2, 1, 1, 0, 5),      # C=1, K=1, B=1
        (3, 2, 3, 3, 2, 0, 9),      # stride 2, padding 0
        (3, 3, 2, 4, 3, 3, 10),     # stride 3, padding K-1
        (1, 2, 4, 5, 2, 4, 6),      # stride 2, padding K-1
        (3, 2, 2, 4, 2, 0, 4),      # T=1: one window, no padding
        (3, 1, 3, 3, 3, 2, 1),      # T=1 from one padded sample, C=1
        (3, 4, 5, 16, 2, 7, 40),    # the default network's first-layer shape
    ])
    def test_against_direct_loop(self, bsz, c_in, n_out, kernel, stride, padding, length):
        rng = np.random.default_rng(bsz * 1000 + kernel * 10 + stride)
        x = rng.normal(size=(bsz, c_in, length))
        w, b = rng.normal(size=(n_out, c_in, kernel)), rng.normal(size=n_out)
        spec = NetworkSpec([conv(kernel, n_out, stride, padding)], length, c_in)
        win = _net._windows(x, kernel, stride, padding)
        y = _net._fp_affine(Network(spec, [(w, b)]))(0, win)
        want_y, backward = direct_conv(x, w, b, stride, padding)
        assert y.shape == want_y.shape == (bsz, n_out, out_length(length, kernel, stride, padding))
        assert y.flags.c_contiguous
        np.testing.assert_allclose(y, want_y, rtol=0, atol=1e-12)
        dy = rng.normal(size=y.shape)
        want_dw, want_db, want_dx = backward(dy)
        dw, db = _net._conv_param_grads(dy, win)
        dx = _net._conv_input_grad(dy, x.shape, w, stride, padding)
        assert dw.shape == w.shape and dx.shape == x.shape
        np.testing.assert_allclose(dw, want_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(db, want_db, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)


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


class _Compared(np.ndarray):
    """An array that counts its ``>`` comparisons, as a ReLU mask makes."""

    count = 0

    def __gt__(self, other):
        _Compared.count += 1
        return np.asarray(self) > other


class TestTrainingMemory:
    def test_loss_gradients_peak_near_inference_peak(self):
        network = init_params(default_ecgnet_spec(), 0)
        rng = np.random.default_rng(1)
        records = [rng.normal(size=RECORD_SAMPLES) for _ in range(64)]
        labels = rng.integers(17, size=64)
        spec, affine = network.spec, _net._fp_affine(network)
        unblocked_gradients(network, records, labels)  # warm up
        # one forward and backward walk over the whole batch, against the
        # forward pass alone on the same batch
        inference = traced_peak(
            lambda: _net._forward_batch(spec, _net._as_batch(spec, records), affine))
        training = traced_peak(lambda: unblocked_gradients(network, records, labels))
        # boolean ReLU masks, in-place bias and ReLU, and caches freed by the
        # backward pass keep training within a third of the inference peak
        assert training <= 1.35 * inference

    def test_inference_walk_builds_no_relu_masks(self, monkeypatch):
        network = init_params(default_ecgnet_spec(), 0)
        fp = _net._fp_affine(network)
        x = np.random.default_rng(3).normal(size=(2, 1, RECORD_SAMPLES))
        monkeypatch.setattr(_Compared, "count", 0)
        _net._forward_batch(network.spec, x, lambda i, h: fp(i, h).view(_Compared))
        assert _Compared.count == 0
        caches = []
        _net._forward_batch(network.spec, x, fp, caches=caches)
        masks = [c["relu_mask"] for c in caches if "relu_mask" in c]
        assert len(masks) == 8 and all(m.dtype == bool for m in masks)
        assert not any("pre_relu" in c for c in caches)

    def test_backward_pass_frees_every_cache(self):
        network = init_params(default_ecgnet_spec(), 0)
        x = np.random.default_rng(4).normal(size=(3, 1, RECORD_SAMPLES))
        caches = []
        logits = _net._forward_batch(network.spec, x, _net._fp_affine(network),
                                     train_rng=np.random.default_rng(5), caches=caches)
        refs = [weakref.ref(v) for c in caches for v in c.values()
                if isinstance(v, np.ndarray)]
        assert len(refs) > 20
        _, probs = _net._cross_entropy(logits, [0, 1, 2])
        _net._backward_batch(network, caches, probs, [0, 1, 2], 3)
        assert caches == []
        assert all(ref() is None for ref in refs)


class TestBlockedPasses:
    """fp inference, training and the calibration gradient run in blocks of
    ``net.BLOCK`` records."""

    def test_working_memory_does_not_grow_with_batch(self, monkeypatch):
        network = init_params(default_ecgnet_spec(), 0)
        rng = np.random.default_rng(6)
        records = [rng.normal(size=RECORD_SAMPLES) for _ in range(136)]
        labels = rng.integers(17, size=136)
        train_set = Dataset(records, labels)
        calls = [lambda n: _net.predict_batch(network, records[:n]),
                 lambda n: _net.batch_loss(network, records[:n], labels[:n]),
                 lambda n: _net.loss_gradients(network, records[:n], labels[:n]),
                 # one epoch of one minibatch of n records
                 lambda n: train(network, Dataset(train_set.records[:n], labels[:n]),
                                 TrainConfig(epochs=1, batch_size=n, seed=0))]
        _net.loss_gradients(network, records[:1], labels[:1])  # lazy numpy state
        # inference holds at most one block in flight per worker: bounded by
        # the workers, not by the batch. Two blocks on two workers need not
        # overlap at their peaks, so the bound is one block's peak per worker
        for workers in (1, 2):
            monkeypatch.setenv("ALQ_THREADS", str(workers))
            for call in calls:
                # the whole 136-record batch put predict_batch at 54.9 MB
                growth = (traced_peak(lambda: call(136))
                          - workers * traced_peak(lambda: call(_net.BLOCK)))
                assert growth < 1e6

    def test_gradient_sums_blocks(self):
        # two full blocks and a short one
        network = init_params(default_ecgnet_spec(), 3)
        records, labels = random_records(21, 7)
        loss, grads = _net.loss_gradients(network, records, labels)
        assert loss == _net.batch_loss(network, records, labels)
        _, whole = unblocked_gradients(network, records, np.asarray(labels))
        for g, w in zip(grads, whole):
            assert (g is None) == (w is None)
            if w is not None:
                flat = np.concatenate([w[0].ravel(), w[1]])
                assert np.linalg.norm(g - flat) <= 1e-12 * np.linalg.norm(flat)

    def test_gradient_sums_blocks_with_dropout(self):
        # equally seeded rngs draw the same dropout masks, block by block
        network = conv_stack_network()
        records, labels = random_records(21, 9)
        loss, grads = _net._gradients(network, records, labels, np.random.default_rng(30))
        want_loss, want = unblocked_gradients(network, records, labels,
                                              np.random.default_rng(30))
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        for g, w in zip(grads, want):
            assert (g is None) == (w is None)
            if w is not None:
                g, w = (np.concatenate([a[0].ravel(), a[1]]) for a in (g, w))
                assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)

    def test_logits_bitwise_equal_at_every_batch_and_block_size(self, monkeypatch):
        # every product is per record, dense layers too, so no record's
        # bytes depend on the records around it
        network = golden_network()
        records, _ = random_records(40, 29)
        whole = _net.logits_batch(network, records)
        out = {}
        for block in (1, 8, 16):
            monkeypatch.setattr(_net, "BLOCK", block)
            for size in (1, 7, 40):
                out[block, size] = np.concatenate([_net.logits_batch(network, records[i : i + size])
                                                   for i in range(0, 40, size)]).tobytes()
        assert set(out.values()) == {whole.tobytes()}

    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_one_block_is_one_pass(self, n):
        network = conv_stack_network()
        records, labels = random_records(n, 8)
        loss, grads = _net.loss_gradients(network, records, labels)
        want_loss, want = unblocked_gradients(network, records, labels)
        assert loss == want_loss
        assert sha256_of(*[g for g in grads if g is not None]) == sha256_of(
            *[np.concatenate([w[0].ravel(), w[1]]) for w in want if w is not None])


def unblocked_gradients(network, records, labels, train_rng=None):
    """Loss and (weight, bias) gradients from one forward walk with caches,
    the cross-entropy and one backward walk over the whole batch: the walk
    that ``net._gradients`` runs once per block."""
    spec, caches = network.spec, []
    logits = _net._forward_batch(spec, _net._as_batch(spec, records), _net._fp_affine(network),
                                 train_rng=train_rng, caches=caches)
    loss, probs = _net._cross_entropy(logits, labels)
    return loss, _net._backward_batch(network, caches, probs, labels, len(labels))


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
    params[layer_index] = _net.layer_table(network.spec)[layer_index].unflatten(flat)
    return _net.batch_loss(Network(network.spec, params), records, labels)


class TestFlattenParams:
    def test_lengths(self):
        network = init_params(default_ecgnet_spec(), 0)
        assert flatten_params(network, 0).size == 136

    def test_round_trip_bitwise(self):
        network = init_params(default_ecgnet_spec(), 5)
        for row in _net.layer_table(network.spec):
            if row.name:
                w, b = row.unflatten(flatten_params(network, row.index))
                assert np.array_equal(w, network.params[row.index][0])
                assert np.array_equal(b, network.params[row.index][1])

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
        result = train(network, ds,
                       TrainConfig(epochs=1, batch_size=32, learning_rate=0.0, seed=3))
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
            train(network, Dataset(np.zeros((0, RECORD_SAMPLES)), []), TrainConfig(epochs=1))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1e-3])
    def test_bad_learning_rate_rejected(self, rate):
        # a NaN or infinite rate would train into a checkpoint that does not load
        with pytest.raises(TrainingError, match="learning_rate must be finite and >= 0"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 1.5, "epochs must be an integer"),
        ("epochs", True, "epochs must be an integer"),
        ("batch_size", 32.0, "batch_size must be an integer"),
        ("batch_size", True, "batch_size must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),  # default_rng rejected it in train
    ])
    def test_bad_integer_setting_rejected(self, field, value, message):
        with pytest.raises(TrainingError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_names_epoch(self):
        recs, labels = _toy_training_set()
        network = init_params(tiny_spec(), 0)
        with pytest.raises(TrainingError, match="epoch 0"):
            train(network, Dataset(recs, labels),
                  TrainConfig(epochs=1, batch_size=4, learning_rate=1e200))


def sha256_of(*arrays) -> str:
    """SHA-256 of the float64 bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def random_records(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(records, labels) of ``n`` 3,600-sample noise records in 17 classes."""
    ds = noise_dataset(np.random.default_rng(seed), n, RECORD_SAMPLES, 17)
    return ds.records, ds.labels()


def golden_network() -> Network:
    """Padded, strided convs, overlapping pools and a dropout dense layer."""
    spec = NetworkSpec([
        conv(16, 4, stride=4, padding=7), pool(4, 4),
        conv(5, 6, padding=2), pool(3, 2),
        flatten(), dense(12, dropout_rate=0.1), softmax_dense(17)])
    validate_spec(spec)
    return init_params(spec, 21)


def conv_stack_network() -> Network:
    """Convs that feed convs: a padded conv's input gradient, a strided
    slice, reaches the next ReLU mask."""
    spec = NetworkSpec([
        conv(16, 4, stride=4, padding=7), conv(5, 6, padding=2), conv(3, 5),
        pool(4, 4), flatten(), dense(12, dropout_rate=0.2), softmax_dense(17)])
    validate_spec(spec)
    return init_params(spec, 25)


class TestGoldenDigests:
    """fp outputs pinned to the bytes of conv layers run as per-record
    GEMMs on an im2col layout and dense layers as per-record GEMVs. They
    pass at 1, 2 and 4 BLAS threads."""

    def test_logits(self):
        logits = _net.logits_batch(golden_network(), random_records(6, 22)[0])
        assert sha256_of(logits) == (
            "21136ba743b3c07b931e271370937fac189245425d0a91f456593fb252ff141c")

    def test_loss_gradients(self):
        loss, grads = _net.loss_gradients(golden_network(), *random_records(6, 22))
        assert sha256_of([loss], *[g for g in grads if g is not None]) == (
            "90f7d1bbb12ebadd5b73d431c26025e5710048af08af3c15983894357b453422")

    @pytest.mark.parametrize("rate, digest", [
        (1e-3, "19e2ac017898ab33c6292d524ccc377439781c76451ac276ccaad0c89311fb67"),
    ], ids=["adam"])
    def test_train_epoch(self, rate, digest):
        network = golden_network()
        result = train(network, Dataset(*random_records(10, 23)),
                       TrainConfig(epochs=1, batch_size=4, seed=24, learning_rate=rate))
        params = [flatten_params(result.network, i)
                  for i, _ in parameterized_layers(network.spec)]
        assert sha256_of(result.epoch_losses, *params) == digest

    def test_conv_stack_train_epoch(self):
        network = conv_stack_network()
        loss, grads = _net.loss_gradients(network, *random_records(6, 26))
        result = train(network, Dataset(*random_records(10, 27)),
                       TrainConfig(epochs=1, batch_size=4, seed=28))
        params = [flatten_params(result.network, i)
                  for i, _ in parameterized_layers(network.spec)]
        assert sha256_of([loss], *[g for g in grads if g is not None]) == (
            "ddc2b99ed1a1f023c1ee494814081df2c1d2d6970beba4109a7eb47b8d274284")
        assert sha256_of(result.epoch_losses, *params) == (
            "5e43fe8fc99f336a2bdaf7c167ccd8e281dc5467cf5b46bc0a61470a6e173202")


# loss_gradients and one training epoch of a three-conv network, and the
# quantized executor's logits of the same network at 2 bits, printed as one
# digest; its conv products are large enough for BLAS to split them across
# threads
_THREAD_PROBE = """
import hashlib
import numpy as np
from alqecg import net
from alqecg.data import Dataset, RECORD_SAMPLES
from alqecg.qinfer import QuantExecutor
from alqecg.quantizer import uniform_baseline
spec = net.NetworkSpec([
    net.conv(16, 8, stride=2, padding=7), net.pool(8, 8), net.conv(9, 32, padding=4),
    net.pool(8, 8), net.conv(5, 64, padding=2), net.pool(6, 6), net.flatten(),
    net.dense(12), net.softmax_dense(17)])
rng = np.random.default_rng(0)
draws = [(rng.normal(size=RECORD_SAMPLES), rng.integers(17)) for _ in range(16)]
records, labels = (np.array(a) for a in zip(*draws))
data = Dataset(records, labels)
network = net.init_params(spec, 1)
loss, grads = net.loss_gradients(network, records[:8], labels[:8])
result = net.train(network, data, net.TrainConfig(epochs=1, batch_size=16, seed=2))
logits = QuantExecutor(uniform_baseline(network, 2, 16)).logits(records)
arrays = [[loss], *[g for g in grads if g is not None], result.epoch_losses,
          *[net.flatten_params(result.network, i) for i, _ in net.parameterized_layers(spec)],
          logits]
print(hashlib.sha256(b"".join(np.asarray(a, np.float64).tobytes() for a in arrays)).hexdigest())
"""


class TestBlasThreads:
    def test_gradients_and_training_keep_their_bytes_at_one_and_two_threads(self):
        src = str(Path(_net.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                [src, os.environ.get("PYTHONPATH", "")])}
            env.update(dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
            done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert len(digests[0]) == 65 and digests[0] == digests[1]


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
