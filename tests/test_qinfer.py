import os
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqecg import net as _net, qinfer
from alqecg.bitpack import memory_report
from alqecg.data import Dataset
from alqecg.errors import NumericError, ShapeError
from alqecg.net import default_ecgnet_spec, init_params
from alqecg.qinfer import (
    QuantExecutor,
    dequantize,
    layer_plan,
    predict_batch,
)
from alqecg.quantizer import AlqConfig, QuantLayer, alq_pipeline, canonicalize, uniform_baseline
from conftest import tiny_spec
from test_bitpack import random_model, small_spec
from test_quantizer import empty_layer, groups_of, layer_of, ref_reconstruct
from test_net import random_records, sha256_of


class TestDequantize:
    def test_matrix_product_by_hand(self):
        ql = layer_of([([[1, 1], [1, -1]], [2.0, 1.0]), ([[-1, 1]], [2.0, 1.0])])
        np.testing.assert_allclose(ql.reconstruct(), [3.0, 1.0, -1.0])

    def test_empty_group_zero_weights(self):
        ql = layer_of([(np.zeros((4, 0)), np.zeros(0))])
        np.testing.assert_array_equal(ql.reconstruct(), np.zeros(4))

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
        bad = model.layers[0]
        model.layers[0] = QuantLayer(bad.signs, bad.coords, bad.bits, bad.group_size,
                                     bad.param_count - 1, bad.layer_index)
        with pytest.raises(Exception, match="reconstructed"):
            dequantize(model)


def group_dot(bases, coords, x) -> float:
    """One group's sign-bit dot product sum_i a_i (column_i . x), computed by
    the bit-plane plan of a one-output layer holding the group as its weights."""
    bases = np.asarray(bases, dtype=np.int8)
    n = bases.shape[0]
    # the weights fill group 0; the bias is a second, empty group
    ql = layer_of([(bases, coords), (np.zeros((1, 0)), np.zeros(0))], n)
    x = np.asarray(x, dtype=np.float64)[None, :, None]
    return float(layer_plan(ql, 1, n).apply(x)[0, 0, 0])


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
            ql = QuantLayer(np.concatenate([signs, np.zeros((n_bias, n, 4), np.int8)]),
                            np.concatenate([coords, np.zeros((n_bias, 4))]),
                            np.concatenate([bits, np.zeros(n_bias, np.int64)]),
                            n, k * n + k, 0)
            x = rng.normal(size=n)
            bit_path = layer_plan(ql, k, n).apply(x[None, :, None])[0, :, 0]
            dense_path = ql.reconstruct()[: k * n].reshape(k, n) @ x
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
        model.layers = [empty_layer(ql) for ql in model.layers]
        probs = QuantExecutor(model).probs([np.random.default_rng(0).normal(size=8)])[0]
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)

    @pytest.mark.parametrize("layer, kind", [(0, "conv1d"), (3, "dense"),
                                             (4, "softmax-dense")])
    def test_nonfinite_raises_with_layer(self, layer, kind):
        model, _ = self._model_and_reference()
        at = [ql.layer_index for ql in model.layers].index(layer)
        ql = model.layers[at]
        model.layers[at] = replace(ql, coords=np.full_like(ql.coords, 1e308))
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
        # ALQ_THREADS only spreads the executor's fixed blocks over threads;
        # the fp pass runs as one batch, so no output moves a bit
        from alqecg.metrics import predict_labels

        network = init_params(default_ecgnet_spec(), 21)
        rng = np.random.default_rng(22)
        records = [rng.normal(size=3600) for _ in range(136)]
        model = uniform_baseline(network, 2, 16)
        fp_batch, fp_probs = _net.predict_batch, []

        def spy(net, recs):  # the fp probabilities predict_labels reads
            fp_probs.append(fp_batch(net, recs))
            return fp_probs[-1]

        monkeypatch.setattr(_net, "predict_batch", spy)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ALQ_THREADS", threads)
            fp_probs.clear()
            labels = predict_labels(network, records)
            runs.append((labels, np.concatenate(fp_probs), predict_batch(model, records)))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1].tobytes() == runs[1][1].tobytes()
        assert runs[0][2].tobytes() == runs[1][2].tobytes()

    def test_numeric_error_raised_from_worker_thread(self, monkeypatch):
        model, _ = self._model_and_reference()
        at = [ql.layer_index for ql in model.layers].index(3)
        model.layers[at] = replace(model.layers[at],
                                   coords=np.full_like(model.layers[at].coords, 1e308))
        monkeypatch.setenv("ALQ_THREADS", "2")
        records = [np.full(8, 1e10)] * (qinfer.BLOCK + 1)  # two blocks
        with pytest.raises(NumericError, match=r"layer 3 \(dense\)") as info:
            QuantExecutor(model).logits(records)
        # the traceback runs through the pool's worker, not the caller alone
        files = [frame.filename for frame in traceback.extract_tb(info.value.__traceback__)]
        assert any(f.endswith(os.path.join("concurrent", "futures", "thread.py")) for f in files)

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
            out = model.layers[-1]
            weights = np.arange(len(out.bits)) * 4 < w_count
            assert w_count % 4 == 0
            model.layers[-1] = QuantLayer(
                out.signs * weights[:, None, None], out.coords * scale * weights[:, None],
                out.bits * weights, 4, out.param_count, out.layer_index)
            return model

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


def layer_geometry(model, ql) -> tuple[int, int]:
    """(outputs, fan) of a quantized layer's weight matrix."""
    w_shape, _ = _net.param_shapes(model.spec)[ql.layer_index]
    return w_shape[0], int(np.prod(w_shape[1:]))


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


def prune_channel(ql, o: int, fan: int) -> QuantLayer:
    """The layer with every group that holds a weight of channel ``o`` pruned."""
    start = np.cumsum(ql.sizes) - ql.sizes
    hit = (start < (o + 1) * fan) & (start + ql.sizes > o * fan)
    return QuantLayer(ql.signs * ~hit[:, None, None], ql.coords * ~hit[:, None],
                      ql.bits * ~hit, ql.group_size, ql.param_count, ql.layer_index)


def grid_rows(plan, n_out: int) -> np.ndarray:
    """(windows, K, outputs): whether each row of the plan's grid is non-zero."""
    windows, rows, _ = plan.M.shape
    return (plan.M != 0).any(axis=2).reshape(windows, rows // n_out, n_out)


class TestLayerPlan:
    def test_structure(self):
        rng = np.random.default_rng(21)
        for spec in [small_spec(), tiny_spec()] * 10:
            model = random_model(rng, spec)
            for ql, mem in zip(model.layers, memory_report(model).rows):
                n_out, fan = layer_geometry(model, ql)
                w_total, n = n_out * fan, ql.group_size
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
            for ql in model.layers:
                n_out, fan = layer_geometry(model, ql)
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
        ql = empty_layer(model.layers[0])
        n_out, fan = layer_geometry(model, ql)
        plan = layer_plan(ql, n_out, fan)
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
        for ql in model.layers:
            n_out, fan = layer_geometry(model, ql)
            windows = layer_plan(ql, n_out, fan).M.shape[0]
            assert windows <= -(-fan // group_size) + 1

    def test_group_11_logits_match_dense_scatter_oracle(self):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, 11)
        record = np.random.default_rng(16).normal(size=3600)
        oracle = QuantExecutor(model)
        oracle.plans = {ql.layer_index: DenseScatterPlan(ql, *layer_geometry(model, ql))
                        for ql in model.layers}
        np.testing.assert_allclose(QuantExecutor(model).logits([record]),
                                   oracle.logits([record]), rtol=0, atol=1e-12)


class TestPlanCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Layers that ``layer_plan`` was called for, in call order."""
        built = []
        real = qinfer.layer_plan

        def spy(layer, n_out, fan):
            built.append(layer)
            return real(layer, n_out, fan)

        monkeypatch.setattr(qinfer, "layer_plan", spy)
        return built

    def test_second_predict_builds_nothing(self, builds):
        model = random_model(np.random.default_rng(31), tiny_spec())
        records = [np.random.default_rng(32).normal(size=8) for _ in range(3)]
        first = predict_batch(model, records)
        assert builds == model.layers
        np.testing.assert_array_equal(predict_batch(model, records), first)
        assert len(builds) == len(model.layers)

    def test_replaced_layer_rebuilds_only_its_plan(self, builds):
        model = random_model(np.random.default_rng(33), tiny_spec())
        before = list(model.layers)
        ex = QuantExecutor(model)
        model.layers[1] = replace(before[1], coords=2.0 * before[1].coords)
        ex2 = QuantExecutor(model)
        assert builds == before + [model.layers[1]]
        for i, ql in enumerate(before):
            same = ex2.plans[ql.layer_index] is ex.plans[ql.layer_index]
            assert same == (i != 1)
        x = np.random.default_rng(34).normal(size=8)
        np.testing.assert_array_equal(ex2.logits([x]), QuantExecutor(model).logits([x]))
        assert np.abs(ex2.logits([x]) - _net.logits_batch(dequantize(model), [x])).max() <= 1e-5

    def test_layer_arrays_are_read_only(self):
        model = random_model(np.random.default_rng(35), tiny_spec())
        ql = model.layers[0]
        for arr in (ql.coords, ql.signs, ql.bits):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # the arrays a layer is built from stay the caller's to change
        signs, coords, bits = ql.signs.copy(), ql.coords.copy(), ql.bits.copy()
        QuantLayer(signs, coords, bits, ql.group_size, ql.param_count, ql.layer_index)
        coords[0] = 1.0
        bits[0] = 1


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


class TestBlocks:
    """Blocks bound the executor's memory and change no output byte."""

    @pytest.mark.parametrize("group_size", [16, 11])
    def test_block_size_changes_no_byte(self, monkeypatch, group_size):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, group_size)
        rows = np.random.default_rng(26).normal(size=(40, 3600))
        ex = QuantExecutor(model)
        out = {}
        for block in (1, 8, 16):
            monkeypatch.setattr(qinfer, "BLOCK", block)
            for records in (list(rows), tuple(rows), rows):
                out[block, type(records)] = ex.logits(records).tobytes()
        # nor do a layer's record chunks: one record each, or the whole block
        for cap in (0, 1 << 40):
            monkeypatch.setattr(qinfer, "Z_BYTES", cap)
            out[cap] = ex.logits(rows).tobytes()
        assert len(set(out.values())) == 1

    @staticmethod
    def logits_peak(ex, records) -> int:
        import tracemalloc

        ex.logits(records[:1])  # plans and lazy numpy state outside the trace
        tracemalloc.start()
        try:
            ex.logits(records)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_memory_does_not_grow_with_batch(self, monkeypatch):
        monkeypatch.setenv("ALQ_THREADS", "1")
        network = init_params(default_ecgnet_spec(), 21)
        ex = QuantExecutor(uniform_baseline(network, 2, 16))
        records = [np.random.default_rng(27).normal(size=3600) for _ in range(136)]

        # the whole 136-record input alone would add 3.9 MB
        assert (self.logits_peak(ex, records)
                - self.logits_peak(ex, records[: qinfer.BLOCK])) < 1e6
        assert all(plan.M.dtype == np.int8 for plan in ex.plans.values())
        grid_bytes = sum(plan.M.nbytes for plan in ex.plans.values())
        fp_bytes = sum(a.nbytes for p in network.params if p is not None for a in p)
        assert grid_bytes < fp_bytes

    def test_products_are_capped_within_a_block(self, monkeypatch):
        monkeypatch.setenv("ALQ_THREADS", "1")
        ex = QuantExecutor(uniform_baseline(init_params(default_ecgnet_spec(), 21), 3, 16))
        records = [np.random.default_rng(27).normal(size=3600) for _ in range(qinfer.BLOCK)]
        # a whole block's float64 bit-plane product is 9.3 MB at Conv1D_4 of
        # this 3-bit model; held whole, it puts the peak at 11.3 MB, and held
        # in chunks under Z_BYTES, at 5.3 MB
        assert self.logits_peak(ex, records) < 7e6


class TestExecutorGoldenDigests:
    # logits pinned to the bytes of the executor before it ran on the
    # network's layer walk; 40 records make five blocks
    @pytest.mark.parametrize("group_size, b1, batch", [
        (16, "322d17eac2bba6072f79ef6b433f32ebc476891c5c2e10b76a7a492a4a1773a4",
         "981659f890ed00c51deafb141d52141a6907866d652ec10fb25667367937105f"),
        (11, "81e8e9c4dea41a8d7e5b2c867cb0d198e80eb510d5cc91347f12d936bde42455",
         "44990e3304506084ebd965d16bf88df79d6c27cb0070fe1c79495a13fdbeba09"),
    ])
    def test_logits(self, group_size, b1, batch):
        model = uniform_baseline(init_params(default_ecgnet_spec(), 14), 2, group_size)
        records = random_records(40, 25)
        ex = QuantExecutor(model)
        assert sha256_of(ex.logits(records[:1])) == b1
        assert sha256_of(ex.logits(records)) == batch

    def test_mixed_bitwidth_logits(self):
        # loss-aware ALQ at 1.37 bits: groups of 0 to 3 bits, so the plans
        # hold zero sign rows and fully pruned groups; pinned to the bytes of
        # the executor that held each block's whole bit-plane product
        network = init_params(default_ecgnet_spec(), 14)
        config = AlqConfig(group_size=16, i_max=3, target_avg_bitwidth=1.37,
                           refine_iters=2, calib_batch=24, seed=5)
        model, _ = alq_pipeline(network, Dataset(random_records(24, 31), 17), config)
        bits = np.concatenate([ql.bits for ql in model.layers])
        assert set(np.unique(bits)) == {0, 1, 2, 3}
        records = random_records(40, 25)
        ex = QuantExecutor(model)
        assert (sha256_of(ex.logits(records[:1]))
                == "827ef642aae98bf6603bdd177b8a064db48d3c1449930befc6f8bdc49b879956")
        assert (sha256_of(ex.logits(records))
                == "32b4610284c39259569711f51a58c4cd9e4a3997d81ffe24ef69f21f0505c089")
