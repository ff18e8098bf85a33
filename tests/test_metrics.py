from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqecg.errors import ShapeError
from alqecg.metrics import (
    ConfusionMatrix,
    confusion,
    emit_reports,
    evaluate,
    format_confusion_heat,
    metrics,
    predict_labels,
)
from alqecg.net import init_params
from alqecg.qinfer import dequantize
from alqecg.quantizer import uniform_baseline
from alqecg.data import Dataset
from conftest import noise_dataset, tiny_spec
from test_quantizer import empty_groups


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        cm = confusion([0, 1, 2, 3, 4], [0, 1, 2, 3, 4], class_count=5)
        assert np.trace(cm.counts) == 5
        assert cm.counts.sum() == 5

    def test_two_class_tally(self):
        cm = confusion([0, 1, 1, 1, 0], [0, 0, 1, 1, 1], class_count=2)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [1, 2]])

    def test_normalized_rows(self):
        cm = confusion([0, 1, 1, 1, 0], [0, 0, 1, 1, 1], class_count=2)
        norm = cm.normalized()
        np.testing.assert_allclose(norm.sum(axis=1), [1.0, 1.0])

    def test_zero_row_stays_zero(self):
        cm = ConfusionMatrix(np.array([[2, 0], [0, 0]]))
        assert np.all(cm.normalized()[1] == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([0, 1], [0], class_count=2)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            confusion([0, 5], [0, 1], class_count=2)


class TestMetrics:
    def test_perfect_matrix(self):
        cm = ConfusionMatrix(np.eye(17, dtype=np.int64) * 3)
        rep = metrics(cm)
        assert rep.oa == rep.sen == rep.spe == pytest.approx(100.0)

    def test_two_class_hand_example(self):
        cm = ConfusionMatrix(np.array([[5, 0], [1, 4]]))
        rep = metrics(cm)
        assert rep.oa == pytest.approx(90.0)
        assert rep.sen == pytest.approx(90.0)  # (5/5 + 4/5) / 2
        assert rep.spe == pytest.approx(90.0)  # (4/5 + 5/5) / 2
        assert rep.n == 10
        assert rep.excluded_classes == []

    def test_summed_one_vs_rest_exceeds_plain_accuracy(self):
        cm = ConfusionMatrix(np.array([[5, 0], [1, 4]]))
        rep = metrics(cm)
        # TP sum 9, TN sum 9 -> 180%
        assert rep.oa_ovr_sum == pytest.approx(180.0)

    def test_zero_support_class_excluded(self):
        cm = ConfusionMatrix(np.array([[3, 0, 0], [1, 2, 0], [0, 0, 0]]))
        rep = metrics(cm)
        assert rep.excluded_classes == [2]
        assert rep.per_class_sensitivity[2] is None
        assert rep.per_class_specificity[2] == pytest.approx(100.0)
        assert rep.sen == pytest.approx((100.0 + 2 / 3 * 100.0) / 2)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError):
            metrics(ConfusionMatrix(np.zeros((3, 3), dtype=np.int64)))

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        min_size=1, max_size=60),
        perm_seed=st.integers(0, 1000),
    )
    def test_permutation_invariance(self, labels, perm_seed):
        truth = [t for t, _ in labels]
        preds = [p for _, p in labels]
        rep = metrics(confusion(preds, truth, class_count=5))
        perm = np.random.default_rng(perm_seed).permutation(5)
        rep_p = metrics(
            confusion([perm[p] for p in preds], [perm[t] for t in truth], class_count=5)
        )
        assert rep_p.oa == pytest.approx(rep.oa)
        assert rep_p.sen == pytest.approx(rep.sen)
        assert rep_p.spe == pytest.approx(rep.spe)

    def test_identity_predictions_always_100(self):
        for labels in ([0], [1, 1, 2], list(range(5))):
            rep = metrics(confusion(labels, labels, class_count=5))
            assert rep.oa == pytest.approx(100.0)


class TestEvaluate:
    def _records(self, n=30, length=8, classes=3, seed=0):
        return noise_dataset(np.random.default_rng(seed), n, length, classes)

    def test_quantized_equals_dequantized_reference(self):
        network = init_params(tiny_spec(), 3)
        model = uniform_baseline(network, 2, 16)
        reference = dequantize(model)
        ds = self._records()
        cm_q, rep_q = evaluate(model, ds)
        cm_f, rep_f = evaluate(reference, ds)
        np.testing.assert_array_equal(cm_q.counts, cm_f.counts)
        assert rep_q.oa == rep_f.oa

    def test_fully_pruned_predicts_class_zero(self):
        network = init_params(tiny_spec(), 3)
        model = uniform_baseline(network, 1, 16)
        model = replace(model, groups=empty_groups(model.groups))
        ds = self._records(n=60)
        preds = predict_labels(model, ds.records)
        assert np.all(preds == 0)
        _, rep = evaluate(model, ds)
        share_class0 = (ds.labels() == 0).mean() * 100
        assert rep.oa == pytest.approx(share_class0)

    def test_empty_test_set(self):
        network = init_params(tiny_spec(), 3)
        with pytest.raises(ShapeError):
            evaluate(network, Dataset(np.zeros((0, 8)), [], class_count=3))

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("records", [[], (), np.zeros((0, 8))],
                             ids=["list", "tuple", "array"])
    def test_empty_record_batch(self, quantized, records):
        # no records give no rows, on either model kind and at every entry
        # point, rather than a failure to stack an empty batch
        from alqecg import net as _net, qinfer

        model = init_params(tiny_spec(), 3)
        if quantized:
            model = uniform_baseline(model, 2, 16)
            outputs = [qinfer.QuantExecutor(model).logits(records),
                       qinfer.predict_batch(model, records)]
        else:
            outputs = [_net.logits_batch(model, records),
                       _net.predict_batch(model, records)]
        for out in outputs:
            assert out.shape == (0, 3) and out.dtype == np.float64
        labels = predict_labels(model, records)
        assert labels.shape == (0,) and labels.dtype.kind == "i"


class TestSweep:
    def test_single_rate_matches_pipeline(self):
        from alqecg.metrics import sweep as run_sweep
        from alqecg.quantizer import AlqConfig, alq_pipeline
        from test_quantizer import toy_calib, toy_quant_net

        network, _ = toy_quant_net()
        calib = toy_calib()
        config = AlqConfig(group_size=4, i_max=2, prune_rate=0.0, scorer="loss_aware",
                           refine_iters=2, seed=0)
        points = run_sweep(network, calib, calib, [0.0], config)
        assert len(points) == 1
        _, report = alq_pipeline(network, calib, config)
        assert points[0].avg_bitwidth_refined == pytest.approx(report.avg_bitwidth_final)
        assert points[0].calib_loss_refined == pytest.approx(report.calib_loss_final)

    @pytest.mark.parametrize("scorer", ["magnitude", "loss_aware"])
    def test_points_equal_pipeline_runs(self, monkeypatch, scorer):
        from dataclasses import replace

        from alqecg import metrics as _metrics
        from alqecg.metrics import sweep as run_sweep
        from alqecg.quantizer import AlqConfig, alq_pipeline
        from test_quantizer import arrays_sha256, toy_calib, toy_quant_net

        network, _ = toy_quant_net()
        calib = toy_calib()
        config = AlqConfig(group_size=4, i_max=2, scorer=scorer, refine_iters=2, seed=0)
        models = []

        def spy(model, test):
            models.append(model)
            return evaluate(model, test)

        monkeypatch.setattr(_metrics, "evaluate", spy)
        points = run_sweep(network, calib, calib, [0.0, 0.5], config)
        assert len(points) == len(models) == 2
        assert points[1].avg_bitwidth < points[0].avg_bitwidth
        for point, model in zip(points, models):
            want, report = alq_pipeline(network, calib,
                                        replace(config, prune_rate=point.prune_rate))
            assert point.avg_bitwidth == report.avg_bitwidth_pruned
            assert point.calib_loss == report.calib_loss_pruned
            assert point.avg_bitwidth_refined == report.avg_bitwidth_final
            assert point.calib_loss_refined == report.calib_loss_final
            assert point.test_oa == evaluate(want, calib)[1].oa
            assert arrays_sha256(model) == arrays_sha256(want)

    def test_loss_aware_sweep_shares_init_and_gradient(self, monkeypatch):
        from alqecg import net as _net, quantizer as _quantizer
        from alqecg.metrics import sweep as run_sweep
        from alqecg.quantizer import AlqConfig
        from test_quantizer import toy_calib, toy_quant_net

        network, _ = toy_quant_net()
        calls = {"init_layers": 0, "loss_gradients": 0, "batch_loss": 0}
        for module, name in [(_quantizer, "init_layers"), (_net, "loss_gradients"),
                             (_net, "batch_loss")]:
            def spy(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, spy)
        config = AlqConfig(group_size=4, i_max=2, scorer="loss_aware", refine_iters=1, seed=0)
        run_sweep(network, toy_calib(), toy_calib(), [0.0, 0.5], config)
        # one init and one scoring gradient (which also gives the initial
        # loss) for both rates; a final forward per rate, a pruned one at 0.5
        assert calls == {"init_layers": 1, "loss_gradients": 1, "batch_loss": 3}

    def test_without_calibration_logs_and_writes_missing_losses(self, caplog, tmp_path):
        from alqecg.metrics import sweep as run_sweep
        from alqecg.quantizer import AlqConfig
        from test_quantizer import toy_calib, toy_quant_net

        network, _ = toy_quant_net()
        config = AlqConfig(group_size=4, i_max=2, scorer="magnitude", refine_iters=1, seed=0)
        with caplog.at_level("INFO", logger="alqecg.metrics"):
            points = run_sweep(network, None, toy_calib(), [0.0, 0.5], config)
        assert [p.calib_loss for p in points] == [None, None]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2 and all(", loss - -> -, OA " in m for m in messages)
        emit_reports(tmp_path, sweep_points=points)
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row, point in zip(rows, points):
            cells = row.split(",")
            assert cells[2] == cells[4] == ""
            assert float(cells[3]) == pytest.approx(point.avg_bitwidth_refined)
        assert b"null" in (tmp_path / "sweep.json").read_bytes()

    def test_rates_must_ascend(self):
        from alqecg.metrics import sweep as run_sweep
        from alqecg.quantizer import AlqConfig
        from test_quantizer import toy_calib, toy_quant_net

        network, _ = toy_quant_net()
        with pytest.raises(ShapeError):
            run_sweep(network, toy_calib(), toy_calib(), [0.5, 0.25],
                      AlqConfig(prune_rate=0.0))


class TestEmitReports:
    def test_deterministic_bytes(self, tmp_path):
        cm = confusion([0, 1, 1, 1, 0], [0, 0, 1, 1, 1], class_count=2)
        rep = metrics(cm)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_reports(a, rep, cm)
        emit_reports(b, rep, cm)
        for name in ("metrics.json", "confusion.csv", "confusion_normalized.csv",
                     "confusion_heat.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_confusion_csv_shape(self, tmp_path):
        cm = confusion([0, 1], [1, 0], class_count=2)
        emit_reports(tmp_path, None, cm)
        lines = (tmp_path / "confusion.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[1] == "0,0,1"

    def test_heat_table_marks_zeros(self):
        cm = confusion([0, 1], [0, 1], class_count=2)
        heat = format_confusion_heat(cm)
        assert "." in heat and "100" in heat

    def test_metrics_json_contents(self, tmp_path):
        import json

        cm = confusion([0, 1, 1], [0, 1, 1], class_count=2)
        rep = metrics(cm)
        emit_reports(tmp_path, rep, None)
        data = json.loads((tmp_path / "metrics.json").read_text())
        assert data["oa"] == 100.0
        assert data["n"] == 3
        assert set(data) >= {"oa", "sen", "spe", "per_class_sensitivity",
                             "excluded_classes", "oa_ovr_sum"}
