import os
import threading
import traceback
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqecg import net as _net, quantizer
from alqecg.bitpack import memory_report
from alqecg.data import Dataset
from alqecg.errors import ConfigError, NumericError, ShapeError
from alqecg.net import default_ecgnet_spec, init_params
from alqecg.qinfer import QuantExecutor, dequantize, predict_batch
from alqecg.quantizer import (
    AlqConfig,
    Groups,
    QuantModel,
    alq_pipeline,
    canonicalize,
    group_sizes,
    layer_spans,
    uniform_baseline,
)
import bitplane_oracle
from bitplane_oracle import BitPlaneExecutor, layer_plan
from conftest import tiny_spec, traced_peak
from test_bitpack import random_model, small_spec
from test_quantizer import (
    empty_groups,
    groups_from,
    groups_of,
    ref_reconstruct,
    span_of,
    values_of,
    with_arrays,
    writable,
)
from test_net import random_records, sha256_of


class TestDequantize:
    def test_matrix_product_by_hand(self):
        groups = groups_from([([[1, 1], [1, -1]], [2.0, 1.0]), ([[-1, 1]], [2.0, 1.0])])
        np.testing.assert_allclose(values_of(groups), [3.0, 1.0, -1.0])

    def test_empty_group_zero_weights(self):
        groups = groups_from([(np.zeros((4, 0)), np.zeros(0))])
        np.testing.assert_array_equal(values_of(groups), np.zeros(4))

    def test_lossless_model_restores_originals(self):
        network = init_params(tiny_spec(), 5)
        snapped = dequantize(uniform_baseline(network, 1, 16))
        model = uniform_baseline(snapped, 2, 16)
        back = dequantize(model)
        for idx, _ in _net.parameterized_layers(snapped.spec):
            np.testing.assert_allclose(
                _net.flatten_params(back, idx),
                _net.flatten_params(snapped, idx),
                atol=1e-6,
            )

    def test_shape_mismatch_rejected(self):
        network = init_params(tiny_spec(), 5)
        model = uniform_baseline(network, 1, 16)
        # the first layer's groups, one value short
        g = model.groups
        sizes = g.sizes.copy()
        sizes[span_of(model, 0).stop - 1] -= 1
        with pytest.raises(ConfigError, match="not the"):
            QuantModel(model.spec, Groups(g.signs, g.coords, g.bits, sizes), 16)


def group_dot(bases, coords, x) -> float:
    """One group's sign-bit dot product sum_i a_i (column_i . x), computed by
    the bit-plane plan of a one-output layer holding the group as its weights."""
    bases = np.asarray(bases, dtype=np.int8)
    n = bases.shape[0]
    # the weights fill group 0; the bias is a second, empty group
    groups = groups_from([(bases, coords), (np.zeros((1, 0)), np.zeros(0))], n)
    x = np.asarray(x, dtype=np.float64)[None, :, None]
    return float(layer_plan(groups, 1, n).apply(x)[0, 0, 0])


class TestGroupDot:
    def test_all_positive_signs(self):
        assert group_dot(np.ones((3, 1)), [1.0], [1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_two_base_hand_example(self):
        bases, coords = [[1, 1], [1, -1]], [2.0, 1.0]
        assert group_dot(bases, coords, [1.0, 1.0]) == pytest.approx(4.0)
        dense = ref_reconstruct(np.array(bases), coords) @ np.array([1.0, 1.0])
        assert dense == pytest.approx(4.0)

    def test_zero_input(self):
        assert group_dot([[1, -1]], [2.0, 0.5], np.zeros(1)) == 0.0

    def test_length_mismatch(self):
        model = uniform_baseline(init_params(tiny_spec(), 1), 2, 16)
        with pytest.raises(ShapeError):
            QuantExecutor(model).logits([np.zeros(9)])

    def test_equivalence_bulk(self):
        # sign-bit path vs dense reconstruction over 10,000 random groups: per
        # group size n, a dense layer whose 625 output channels each hold one
        # group as their weights; the biases fill further, empty groups
        rng = np.random.default_rng(12)
        k = 625
        for n in range(1, 17):
            signs, coords, bits = canonicalize(
                rng.choice(np.array([-1, 1], dtype=np.int8), size=(k, n, 4)),
                rng.uniform(0.01, 3.0, size=(k, 4))
                * (np.arange(4) < rng.integers(0, 5, size=(k, 1))),
            )
            n_bias = -(-k // n)
            groups = Groups(np.concatenate([signs, np.zeros((n_bias, n, 4), np.int8)]),
                            np.concatenate([coords, np.zeros((n_bias, 4))]),
                            np.concatenate([bits, np.zeros(n_bias, np.int64)]),
                            group_sizes(k * n + k, n))
            x = rng.normal(size=n)
            bit_path = layer_plan(groups, k, n).apply(x[None, :, None])[0, :, 0]
            dense_path = values_of(groups)[: k * n].reshape(k, n) @ x
            assert (np.abs(bit_path - dense_path)
                    <= 1e-6 * np.maximum(1.0, np.abs(dense_path))).all()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 16),
        bits=st.integers(0, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equivalence_property(self, n, bits, seed):
        rng = np.random.default_rng(seed)
        bases, coords, width = canonicalize(
            rng.choice(np.array([-1, 1], dtype=np.int8), size=(1, n, bits)),
            rng.uniform(0.01, 3.0, size=(1, bits)),
        )
        x = rng.normal(size=n)
        q = (bases[0, :, : width[0]], coords[0, : width[0]])
        assert group_dot(*q, x) == pytest.approx(float(ref_reconstruct(*q) @ x), abs=1e-9)


class TestQforward:
    def _model_and_reference(self, seed=0, bits=2):
        network = init_params(tiny_spec(), seed)
        model = uniform_baseline(network, bits, 16)
        return model, dequantize(model)

    def test_matches_dequantized_logits(self):
        model, reference = self._model_and_reference()
        rng = np.random.default_rng(3)
        records = [rng.normal(size=8) for _ in range(32)]
        qlog = QuantExecutor(model).logits(records)
        flog = _net.logits_batch(reference, records)
        assert np.abs(qlog - flog).max() <= 1e-5

    def test_probabilities(self):
        model, reference = self._model_and_reference(seed=4)
        rng = np.random.default_rng(5)
        rec = rng.normal(size=8)
        probs = QuantExecutor(model).probs([rec])[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(probs, _net.predict_batch(reference, [rec])[0], atol=1e-6)

    def test_fully_pruned_uniform_output(self):
        model, _ = self._model_and_reference()
        model = replace(model, groups=empty_groups(model.groups))
        probs = QuantExecutor(model).probs([np.random.default_rng(0).normal(size=8)])[0]
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)

    @pytest.mark.parametrize("layer, kind", [(0, "conv1d"), (3, "dense"),
                                             (4, "softmax-dense")])
    def test_nonfinite_raises_with_layer(self, layer, kind):
        model = huge_coords(self._model_and_reference()[0], layer)
        with pytest.raises(NumericError, match=rf"layer {layer} \({kind}\)"):
            QuantExecutor(model).logits([np.full(8, 1e10)])

    def test_batching_invariant(self):
        model, _ = self._model_and_reference(seed=6)
        rng = np.random.default_rng(7)
        records = [rng.normal(size=8) for _ in range(10)]
        ex = QuantExecutor(model)
        whole = ex.probs(records)
        one_by_one = np.stack([ex.probs([r])[0] for r in records])
        np.testing.assert_array_equal(whole, one_by_one)

    def test_thread_env_does_not_change_results(self, monkeypatch):
        model, _ = self._model_and_reference(seed=8)
        rng = np.random.default_rng(9)
        records = [rng.normal(size=8) for _ in range(40)]
        monkeypatch.setenv("ALQ_THREADS", "1")
        seq = predict_batch(model, records)
        monkeypatch.setenv("ALQ_THREADS", "4")
        par = predict_batch(model, records)
        np.testing.assert_array_equal(seq, par)

    def test_thread_env_keeps_fp_labels_and_executor_bytes(self, monkeypatch):
        # ALQ_THREADS spreads the fixed blocks of the fp pass and of the
        # executor over threads; a block's arithmetic is the same on any
        # thread, so no output moves a bit
        from alqecg.metrics import predict_labels

        network = init_params(default_ecgnet_spec(), 21)
        rng = np.random.default_rng(22)
        records = [rng.normal(size=3600) for _ in range(136)]
        model = uniform_baseline(network, 2, 16)
        fp_batch, fp_probs = _net.predict_batch, []
        forward, caller, on_caller = _net._forward_batch, threading.get_ident(), set()

        def spy(net, recs):  # the fp probabilities predict_labels reads
            fp_probs.append(fp_batch(net, recs))
            return fp_probs[-1]

        def forward_spy(*args, **kwargs):  # which thread ran each fp block
            on_caller.add(threading.get_ident() == caller)
            return forward(*args, **kwargs)

        monkeypatch.setattr(_net, "predict_batch", spy)
        runs = []
        for threads, want in (("1", {True}), ("2", {False})):
            monkeypatch.setenv("ALQ_THREADS", threads)
            fp_probs.clear()
            with monkeypatch.context() as m:
                m.setattr(_net, "_forward_batch", forward_spy)
                on_caller.clear()
                labels = predict_labels(network, records)
                assert on_caller == want  # the fp blocks ran on the pool at 2
            runs.append((labels, np.concatenate(fp_probs), predict_batch(model, records)))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1].tobytes() == runs[1][1].tobytes()
        assert runs[0][2].tobytes() == runs[1][2].tobytes()

    def test_numeric_error_raised_from_worker_thread(self, monkeypatch):
        model = huge_coords(self._model_and_reference()[0], 3)
        with np.errstate(over="ignore", invalid="ignore"):
            network = dequantize(model)  # the same overflowed weights, as an fp network
        monkeypatch.setenv("ALQ_THREADS", "2")
        records = [np.full(8, 1e10)] * (_net.BLOCK + 1)  # two blocks
        for run in (QuantExecutor(model).logits, partial(_net.logits_batch, network)):
            with pytest.raises(NumericError, match=r"layer 3 \(dense\)") as info:
                run(records)
            # the traceback runs through the pool's worker, not the caller alone
            files = [frame.filename for frame in traceback.extract_tb(info.value.__traceback__)]
            assert any(f.endswith(os.path.join("concurrent", "futures", "thread.py"))
                       for f in files)

    def test_thread_env_validation(self, monkeypatch):
        from alqecg.errors import ConfigError
        from alqecg.util import worker_count

        monkeypatch.setenv("ALQ_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.setenv("ALQ_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("ALQ_THREADS", "many")
        with pytest.raises(ConfigError):
            worker_count()

    def test_final_layer_rescaling_keeps_argmax(self):
        # positive rescale of every output-layer coordinate, biases zeroed:
        # softmax is monotone in the common factor, so argmax is unchanged
        network = init_params(tiny_spec(), 10)
        w_count = 3 * 4  # output weights before the bias tail

        def build(scale):
            # group size 4 keeps the bias tail in its own (zeroed) groups
            model = uniform_baseline(network, 2, 4)
            out = span_of(model, 4)
            signs, coords, bits = writable(model)
            weights = np.arange(out.stop - out.start) * 4 < w_count
            assert w_count % 4 == 0
            signs[out] *= weights[:, None, None]
            coords[out] *= scale * weights[:, None]
            bits[out] *= weights
            return with_arrays(model, signs, coords, bits)

        rng = np.random.default_rng(11)
        records = [rng.normal(size=8) for _ in range(25)]
        a = QuantExecutor(build(1.0)).probs(records).argmax(axis=1)
        b = QuantExecutor(build(7.5)).probs(records).argmax(axis=1)
        np.testing.assert_array_equal(a, b)

    def test_random_models_match_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = random_model(rng)
            reference = dequantize(model)
            records = [rng.normal(size=16) for _ in range(4)]
            qlog = QuantExecutor(model).logits(records)
            flog = _net.logits_batch(reference, records)
            assert np.abs(qlog - flog).max() <= 1e-5


def huge_coords(model, layer: int):
    """The model with every coordinate of one layer's groups set to 1e308."""
    signs, coords, bits = writable(model)
    coords[span_of(model, layer)] = 1e308
    return with_arrays(model, signs, coords, bits)


def layer_parts(model) -> list[tuple[int, Groups, int, int]]:
    """(layer index, groups cut to the layer's widest, outputs, fan) of every
    quantized layer."""
    return [(row.index, model.groups.trimmed(span), row.weights[0],
             int(np.prod(row.weights[1:])))
            for row, span in layer_spans(model.spec, model.group_size)]


def dense_scatter_apply(ql, n_out, fan, x) -> np.ndarray:
    """The former executor, kept as an oracle: ``y = C @ (M @ x + m_b)``.

    ``M`` has one row per (group, output channel) segment and retained bit,
    ``m_b`` holds the row's bias sign, and the dense (outputs x rows) ``C``
    holds the row's coordinate on its channel.
    """
    w_total = n_out * fan
    rows, scatter, off = [], [], 0
    for bases, coords in groups_of(ql):
        pos = off + np.arange(bases.shape[0])
        off += bases.shape[0]
        out = np.where(pos < w_total, pos // fan, pos - w_total)
        col = np.where(pos < w_total, pos % fan, fan)
        for o in np.unique(out):
            for k in range(bases.shape[1]):
                m = np.zeros(fan + 1)
                m[col[out == o]] = bases[out == o, k]
                c = np.zeros(n_out)
                c[o] = coords[k]
                rows.append(m)
                scatter.append(c)
    m = np.array(rows).reshape(-1, fan + 1)
    c = np.array(scatter).reshape(-1, n_out).T
    return c @ (m[:, :fan] @ x + m[:, fan][:, None])


def prune_channel(layer: Groups, o: int, fan: int) -> Groups:
    """The layer with every group that holds a weight of channel ``o`` pruned."""
    start = np.cumsum(layer.sizes) - layer.sizes
    hit = (start < (o + 1) * fan) & (start + layer.sizes > o * fan)
    return Groups(layer.signs * ~hit[:, None, None], layer.coords * ~hit[:, None],
                  layer.bits * ~hit, layer.sizes)


def grid_rows(plan, n_out: int) -> np.ndarray:
    """(windows, K, outputs): whether each row of the plan's grid is non-zero."""
    windows, rows, _ = plan.M.shape
    return (plan.M != 0).any(axis=2).reshape(windows, rows // n_out, n_out)


class TestLayerPlan:
    def test_structure(self):
        rng = np.random.default_rng(21)
        for spec in [small_spec(), tiny_spec()] * 10:
            model = random_model(rng, spec)
            for (_, ql, n_out, fan), mem in zip(layer_parts(model), memory_report(model).rows):
                w_total, n = n_out * fan, model.group_size
                plan = layer_plan(ql, n_out, fan)
                groups = groups_of(ql)
                offsets = np.cumsum([0] + [b.shape[0] for b, _ in groups])
                segments = bias_bits = 0
                for (bases, _), off in zip(groups, offsets):
                    size, bitwidth = bases.shape
                    pos = np.arange(off, off + size)
                    segments += np.unique(pos[pos < w_total] // fan).size * bitwidth
                    bias_bits += np.count_nonzero(pos >= w_total) * bitwidth
                windows, rows, width = plan.M.shape
                left = 0 if fan % n == 0 else n
                assert rows == n_out * ql.bits.max(initial=0)
                assert width == n + left
                assert windows <= -(-fan // n) + 1
                assert plan.coords.shape == (n_out, windows * (rows // n_out))
                assert np.isin(plan.M, (-1, 0, 1)).all()
                assert np.count_nonzero(plan.M) == mem.base_bits - bias_bits
                # one non-zero row per segment and retained bit
                used = grid_rows(plan, n_out)
                assert np.count_nonzero(used) == segments
                # coords[o, s*K + k] belongs to row k*outputs + o of window s,
                # and is 0 wherever that row is all zero
                row_coords = plan.coords.reshape(n_out, windows, -1).transpose(1, 2, 0)
                assert (row_coords[~used] == 0).all()
                # the bias is each channel's reduction of its bias position
                dequantized = np.concatenate([ref_reconstruct(*g) for g in groups])
                np.testing.assert_allclose(plan.bias, dequantized[w_total:], rtol=0,
                                           atol=1e-12)
                # a non-zero row lies inside its window and holds one sign
                # column of channel o's s-th group segment, the whole segment,
                # with that column's coordinate
                for s, k, o in zip(*np.nonzero(used)):
                    c = np.flatnonzero(plan.M[s, k * n_out + o])
                    cols = s * n - left + c
                    assert cols.min() >= 0 and cols.max() < fan
                    pos = o * fan + cols
                    gi = np.searchsorted(offsets, pos, side="right") - 1
                    assert (gi == gi[0]).all() and gi[0] - o * fan // n == s
                    bases, coords = groups[gi[0]]
                    in_group = np.arange(offsets[gi[0]], offsets[gi[0] + 1])
                    np.testing.assert_array_equal(
                        pos, in_group[(in_group >= o * fan) & (in_group < (o + 1) * fan)])
                    np.testing.assert_array_equal(plan.M[s, k * n_out + o, c],
                                                  bases[pos - offsets[gi[0]], k])
                    assert row_coords[s, k, o] == coords[k]

    @pytest.mark.parametrize("group_size", [None, 11])
    def test_matches_dense_scatter_oracle(self, group_size):
        rng = np.random.default_rng(23)
        bias_only = empty_channels = 0
        for spec in [small_spec(), tiny_spec()] * 10:
            model = random_model(rng, spec, group_size)
            for _, ql, n_out, fan in layer_parts(model):
                x = rng.normal(size=(3, fan, 5))
                variants = [ql, prune_channel(ql, int(rng.integers(n_out)), fan)]
                for layer in variants:
                    plan = layer_plan(layer, n_out, fan)
                    # channels with no grid row, and those of them whose
                    # output is their bias alone
                    empty = ~grid_rows(plan, n_out).any(axis=(0, 1))
                    empty_channels += np.count_nonzero(empty)
                    bias_only += np.count_nonzero(empty & (plan.bias != 0))
                    y = plan.apply(x)
                    np.testing.assert_allclose(y, dense_scatter_apply(layer, n_out, fan, x),
                                               rtol=0, atol=1e-12)
        assert bias_only > 0 and empty_channels > 0

    def test_fully_pruned_layer(self):
        model = random_model(np.random.default_rng(22), tiny_spec())
        _, ql, n_out, fan = layer_parts(model)[0]
        plan = layer_plan(empty_groups(ql), n_out, fan)
        assert plan.M.shape[1] == 0
        assert plan.coords.shape == (n_out, 0)
        np.testing.assert_array_equal(plan.bias, np.zeros(n_out))
        y = plan.apply(np.random.default_rng(0).normal(size=(3, fan, 5)))
        np.testing.assert_array_equal(y, np.zeros((3, n_out, 5)))


class DenseScatterPlan:
    """A layer plan whose ``apply`` is the dense-scatter oracle."""

    def __init__(self, ql, n_out, fan):
        self.ql, self.n_out, self.fan = ql, n_out, fan

    def apply(self, x):
        x = x.reshape(x.shape[0], self.fan, x.shape[-1])
        return dense_scatter_apply(self.ql, self.n_out, self.fan, x)


class TestGridWindows:
    # the default network's layers have fans 16, 96, 108, 224, 320, 192, 192,
    # 216 and 64; group size 11 divides none of them
    @pytest.mark.parametrize("group_size", [16, 11])
    def test_window_count_bounded(self, group_size):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, group_size)
        for _, ql, n_out, fan in layer_parts(model):
            windows = layer_plan(ql, n_out, fan).M.shape[0]
            assert windows <= -(-fan // group_size) + 1

    def test_group_11_logits_match_dense_scatter_oracle(self):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, 11)
        record = np.random.default_rng(16).normal(size=3600)
        oracle = BitPlaneExecutor(model)
        oracle.plans = {index: DenseScatterPlan(ql, n_out, fan)
                        for index, ql, n_out, fan in layer_parts(model)}
        expected = oracle.logits([record])
        # the executor, and the bit-plane plans on the same layer walk
        for logits in (QuantExecutor(model).logits([record]),
                       BitPlaneExecutor(model).logits([record])):
            np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)


class TestPlanCache:
    """The executor caches nothing: each ``logits`` call rebuilds the
    model's weights once, and they go when the call returns."""

    @pytest.fixture
    def rebuilds(self, monkeypatch):
        """The networks ``quantizer.dequantized_network`` returned, in call
        order; the executor calls it through the module."""
        built = []
        real = quantizer.dequantized_network

        def spy(model):
            built.append(real(model))
            return built[-1]

        monkeypatch.setattr(quantizer, "dequantized_network", spy)
        return built

    def test_each_call_rebuilds_once_and_keeps_nothing(self, rebuilds):
        model = random_model(np.random.default_rng(31), tiny_spec())
        records = [np.random.default_rng(32).normal(size=8) for _ in range(3 * _net.BLOCK)]
        ex = QuantExecutor(model)
        first = ex.logits(records)
        assert len(rebuilds) == 1  # once per call, not per block
        np.testing.assert_array_equal(predict_batch(model, records),
                                      np.exp(_net._log_softmax(first)))
        assert len(rebuilds) == 2
        weights = [weakref.ref(p[0]) for net in rebuilds for p in net.params if p is not None]
        rebuilds.clear()
        assert all(ref() is None for ref in weights)

    def test_replaced_layer_is_read_by_the_next_call(self):
        model = random_model(np.random.default_rng(33), tiny_spec())
        x = np.random.default_rng(34).normal(size=8)
        ex = QuantExecutor(model)
        before = ex.logits([x])
        signs, coords, bits = writable(model)
        coords[span_of(model, 3)] *= 2.0
        model = ex.model = with_arrays(model, signs, coords, bits)
        after = ex.logits([x])
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, QuantExecutor(model).logits([x]))
        assert np.abs(after - _net.logits_batch(dequantize(model), [x])).max() <= 1e-5
        assert np.abs(after - BitPlaneExecutor(model).logits([x])).max() <= 1e-5

    def test_layer_arrays_are_read_only(self):
        model = random_model(np.random.default_rng(35), tiny_spec())
        g = model.groups
        for arr in (g.coords, g.signs, g.bits, g.sizes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # the arrays a set is built from stay the caller's to change
        signs, coords, bits = writable(model)
        sizes = g.sizes.copy()
        Groups(signs, coords, bits, sizes)
        coords[0] = 1.0
        bits[0] = 1
        sizes[0] = 1
        # and a model's groups are its own: it cannot be handed other ones
        with pytest.raises(AttributeError):
            model.groups = Groups(signs, coords, bits, sizes)


class TestFullModelBatchInvariance:
    # group size 11 divides no layer's fan, so groups straddle output
    # channels and the weight -> bias boundary
    @pytest.mark.parametrize("group_size", [16, 11])
    def test_logits_bitwise_equal_at_every_batch_size(self, group_size):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, group_size)
        rng = np.random.default_rng(15)
        records = [rng.normal(size=3600) for _ in range(20)]
        ex = QuantExecutor(model)
        whole = ex.logits(records)
        singles = np.concatenate([ex.logits([r]) for r in records])
        chunks = np.concatenate([ex.logits(records[i : i + 7]) for i in range(0, 20, 7)])
        np.testing.assert_array_equal(singles, whole)
        np.testing.assert_array_equal(chunks, whole)
        reference = _net.logits_batch(dequantize(model), records)
        assert np.abs(whole - reference).max() <= 1e-5
        oracle = BitPlaneExecutor(model).logits(records)
        assert np.abs(whole - oracle).max() <= 1e-5
        np.testing.assert_array_equal(whole.argmax(axis=1), oracle.argmax(axis=1))


class TestBlocks:
    """Blocks bound the executor's memory and change no output byte."""

    @pytest.mark.parametrize("group_size", [16, 11])
    def test_block_size_changes_no_byte(self, monkeypatch, group_size):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, group_size)
        rows = np.random.default_rng(26).normal(size=(40, 3600))
        ex, oracle = QuantExecutor(model), BitPlaneExecutor(model)
        out, oracle_out = {}, {}
        for block in (1, 8, 16):
            monkeypatch.setattr(_net, "BLOCK", block)
            for records in (list(rows), tuple(rows), rows):
                out[block, type(records)] = ex.logits(records).tobytes()
            oracle_out[block] = oracle.logits(rows).tobytes()
        # nor do the oracle's record chunks: one record each, or the whole block
        for cap in (0, 1 << 40):
            monkeypatch.setattr(bitplane_oracle, "Z_BYTES", cap)
            oracle_out[cap] = oracle.logits(rows).tobytes()
        assert len(set(out.values())) == 1
        assert len(set(oracle_out.values())) == 1

    @staticmethod
    def logits_peak(ex, records) -> int:
        return traced_peak(lambda: ex.logits(records))

    def test_working_memory_does_not_grow_with_batch(self, monkeypatch):
        monkeypatch.setenv("ALQ_THREADS", "1")
        network = init_params(default_ecgnet_spec(), 21)
        ex = QuantExecutor(uniform_baseline(network, 2, 16))
        records = [np.random.default_rng(27).normal(size=3600) for _ in range(136)]

        peak = self.logits_peak(ex, records)
        # the whole 136-record input alone would add 3.9 MB
        assert peak - self.logits_peak(ex, records[: _net.BLOCK]) < 1e6
        # the bit-plane executor, with its plans built beforehand, peaked at
        # 5.10 MB here; the rebuilt weights and one block peak at 3.91 MB
        assert peak < 5.1e6
        # nothing model-sized outlives a call: the numpy buffers allocated
        # in it and still live after it (the bit-plane plans, cached on the
        # layers, kept 285 KB of a new model's; its weights are 648 KB)
        model = uniform_baseline(network, 2, 16)
        tracemalloc.start()
        try:
            predict_batch(model, records)
            kept = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
        assert sum(trace.size for trace in kept.traces) < 100e3

    def test_products_are_capped_within_a_block(self, monkeypatch):
        monkeypatch.setenv("ALQ_THREADS", "1")
        ex = QuantExecutor(uniform_baseline(init_params(default_ecgnet_spec(), 21), 3, 16))
        records = [np.random.default_rng(27).normal(size=3600) for _ in range(_net.BLOCK)]
        # the executor's rebuilt weights and one block peak at 3.9 MB; in the
        # bit-plane oracle a whole block's float64 product is 9.3 MB at
        # Conv1D_4 of this 3-bit model: held whole, it puts the peak at
        # 11.3 MB, and held in chunks under Z_BYTES, at 5.3 MB
        assert self.logits_peak(ex, records) < 7e6
        assert self.logits_peak(BitPlaneExecutor(ex.model), records) < 7e6


def deq_sha256(model) -> str:
    """SHA-256 of the rebuilt parameters that the executor runs on."""
    network = dequantize(model)
    return sha256_of(*[_net.flatten_params(network, i)
                       for i, _ in _net.parameterized_layers(network.spec)])


def check_logits_digests(model, oracle_digests, executor_digests, deq_digest):
    """The executor's logits of 1 and of 40 records (five blocks) against
    their pinned digests, anchored to the bit-plane oracle: the oracle
    reproduces the bytes the bit-plane executor was pinned to, the
    executor stays within 1e-5 of it with the same argmax, and the weights
    it runs on are pinned too."""
    records, _ = random_records(40, 25)
    assert deq_sha256(model) == deq_digest
    ex, oracle = QuantExecutor(model), BitPlaneExecutor(model)
    for rows, oracle_digest, digest in zip((records[:1], records), oracle_digests,
                                           executor_digests):
        logits, expected = ex.logits(rows), oracle.logits(rows)
        assert sha256_of(expected) == oracle_digest
        assert np.abs(logits - expected).max() <= 1e-5
        np.testing.assert_array_equal(logits.argmax(axis=1), expected.argmax(axis=1))
        assert sha256_of(logits) == digest


# per group size: the executor's (B=1, B=40) logits digests, and the digest
# of its rebuilt parameters
EXECUTOR_DIGESTS = {
    16: ("2c6c815d7f3081228acb984d55dd7737dd4f0f7660c3d17f1caccbca0af34395",
         "1cfcbc7343fad03103303d020dcfc05233694871e17de83899fabc392b357ac3",
         "4577f18c617fb66f5a928808a1489b9bbd78c3cfc507c05eaa450574fc741367"),
    11: ("bd9692b263f00c44a4ab9b8642d1b00bf00a0bcecc9de9e0e6d9d8018080c613",
         "ff297819ad79e6d7cb840169da021dcb7b0c5092ba3e4472a7b07d5ebe67c716",
         "cc81b46dd7662558e01f528e1184a1d6d9a470542a8a7341d8e3d02fb8f51656"),
}


class TestExecutorGoldenDigests:
    # the bit-plane oracle's logits, pinned to the bytes of the bit-plane
    # executor before it ran on the network's layer walk
    @pytest.mark.parametrize("group_size, b1, batch", [
        (16, "322d17eac2bba6072f79ef6b433f32ebc476891c5c2e10b76a7a492a4a1773a4",
         "981659f890ed00c51deafb141d52141a6907866d652ec10fb25667367937105f"),
        (11, "81e8e9c4dea41a8d7e5b2c867cb0d198e80eb510d5cc91347f12d936bde42455",
         "44990e3304506084ebd965d16bf88df79d6c27cb0070fe1c79495a13fdbeba09"),
    ])
    def test_logits(self, group_size, b1, batch):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, group_size)
        *digests, deq = EXECUTOR_DIGESTS[group_size]
        check_logits_digests(model, (b1, batch), digests, deq)

    def test_mixed_bitwidth_logits(self):
        # loss-aware ALQ at 1.37 bits: groups of 0 to 3 bits, so the plans
        # hold zero sign rows and fully pruned groups; the oracle's digests
        # are the bytes of the bit-plane executor that held each block's
        # whole bit-plane product
        network = init_params(default_ecgnet_spec(), 14)
        config = AlqConfig(group_size=16, i_max=3, target_avg_bitwidth=1.37,
                           refine_iters=2, calib_batch=24, seed=5)
        model, _ = alq_pipeline(network, Dataset(*random_records(24, 31)), config)
        bits = model.groups.bits
        assert set(np.unique(bits)) == {0, 1, 2, 3}
        check_logits_digests(
            model,
            ("827ef642aae98bf6603bdd177b8a064db48d3c1449930befc6f8bdc49b879956",
             "32b4610284c39259569711f51a58c4cd9e4a3997d81ffe24ef69f21f0505c089"),
            ("0918c9d6b9b44cddb7b0180770fea251c089fa2d0586ca2a3788f0b29c9eaa7f",
             "8046019e39ec5e222b4249e5b10b3ed48e72360da95803988738f5a69733eb1c"),
            "9cbca1dc6aa879eb413241df09efbf38635dcc0b3b4e72725b932af752da1132")
