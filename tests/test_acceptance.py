"""Acceptance suite: one test per release criterion.

Each test prints one PASS line into the terminal summary when its criterion
holds; any failure shows up as a normal pytest failure for that criterion.
"""

import hashlib
import json

import numpy as np
import pytest

from alqecg import bitpack, net as _net
from alqecg.cli import run as cli_run
from alqecg.data import synth_generate
from alqecg.metrics import ConfusionMatrix, confusion, evaluate, metrics, sweep
from alqecg.net import default_ecgnet_spec, init_params, param_counts, propagate_shapes
from alqecg.qinfer import QuantExecutor, dequantize
from alqecg.quantizer import (
    AlqConfig,
    alq_pipeline,
    average_bitwidth,
    dequantized_network,
    score_coordinates,
    uniform_baseline,
)
from alqecg.util import canonical_json_bytes
from conftest import ACCEPTANCE_LINES
from test_bitpack import models_equal, random_model
from test_quantizer import (
    bases_one,
    coords_one,
    init_one,
    oracle_nearest_levels,
    ranked_coordinates,
    recon_error,
    toy_calib,
    toy_quant_net,
    without_coordinate,
)

pytestmark = pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")

# SHA-256 of outputs that refactors of the quantizer, the container and the
# sweep must reproduce byte for byte: the criterion-6 desk ALQQ bytes and the
# criterion-7 sweep.json bytes
DESK_ALQQ_SHA256 = "c401fd07eb19ad4ee26696959b8eb8169f45e775cac157521fd4a29e3e746777"
SWEEP_JSON_SHA256 = "f5361050aa4a0fa9f793c9986a2a0abf33c4e9b3f73474221105f36fc26065ec"
# the criterion-6 config at group size 11 and 4 refinement rounds: each layer's
# short last group then sits inside the network-wide set of groups
DESK_G11_ALQQ_SHA256 = "17de31b98d1c41b530a81dd6459d1a4e7b9ef2378fa95e34768311661ee4e0cd"


def _record(criterion: int, description: str):
    ACCEPTANCE_LINES.append(f"PASS  criterion {criterion}: {description}")


def test_criterion_01_architecture_arithmetic():
    spec = default_ecgnet_spec()
    rows, total = param_counts(spec)
    assert dict(rows) == {
        "Conv1D_1": 136, "Conv1D_2": 1164, "Conv1D_3": 3488, "Conv1D_4": 14400,
        "Conv1D_5": 20544, "Conv1D_6": 12352, "Conv1D_7": 13896,
        "Dense": 13888, "Softmax": 1105,
    }
    assert total == 80973
    flatten_width = propagate_shapes(spec)[14][1]
    assert flatten_width == 216
    _record(1, "per-layer parameter counts, total 80,973, flatten width 216 (exact)")


def test_criterion_02_memory_accounting():
    # reference per-layer profile; the third conv layer's listed average
    # (1.7005) contradicts its own 5,921-bit row, so the bit-implied width
    # is injected for that layer (see tests/test_bitpack.py for the check)
    profile = {
        "Conv1D_1": (1.2500, 170), "Conv1D_2": (1.9896, 2316),
        "Conv1D_3": (5921 / 3488, 5921), "Conv1D_4": (1.7095, 24617),
        "Conv1D_5": (1.4133, 29035), "Conv1D_6": (0.8545, 10555),
        "Conv1D_7": (0.8550, 11881), "Dense": (1.7422, 24196),
        "Softmax": (2.0000, 2210),
    }
    report = bitpack.injected_memory_report(
        default_ecgnet_spec(), {k: bw for k, (bw, _) in profile.items()}
    )
    for row in report.rows:
        assert abs(row.base_bits - profile[row.name][1]) <= 1
    assert report.total_base_bits == 110901
    assert report.total_kb == 13.538
    assert abs(report.compression_rate - 23.36) <= 0.01
    _record(2, "injected bitwidths give 110,901 bits = 13.538 KB, 23.36x (±1 bit/layer)")


def test_criterion_03_quantizer_oracles():
    rng = np.random.default_rng(2024)

    # (a) base assignment equals exhaustive nearest-level search
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 7))
        w = rng.normal(size=n) * rng.uniform(0.05, 4.0)
        q = init_one(w, int(rng.integers(1, 3)))
        if q[1].size == 0:
            continue
        bases, _ = bases_one(w, *q)
        assert np.array_equal(bases, oracle_nearest_levels(w, q[1]))
        checked += 1

    # (b) coordinate step matches the pseudo-inverse oracle
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        i = int(rng.integers(1, 5))
        w = rng.normal(size=n)
        bases = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, i))
        coords = np.sort(rng.uniform(0.05, 2.0, size=i))[::-1]
        out = coords_one(w, bases, coords)
        b = bases.astype(np.float64)
        oracle_recon = b @ (np.linalg.pinv(b) @ w)
        err_out = recon_error(w, *out)
        err_oracle = np.linalg.norm(w - oracle_recon)
        assert err_out <= err_oracle + 1e-8

    # (c) alternating refinement never increases reconstruction error
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        w = rng.normal(size=n)
        q = init_one(w, int(rng.integers(1, 5)))
        err = recon_error(w, *q)
        for _ in range(3):
            if q[1].size == 0:
                break
            q = bases_one(w, *q)
            mid = recon_error(w, *q)
            assert mid <= err
            q = coords_one(w, *q)
            err_new = recon_error(w, *q)
            assert err_new <= mid
            err = err_new

    # (d) loss-aware bottom-1 equals the exhaustive-removal oracle
    network, qlayers = toy_quant_net()
    calib = toy_calib()
    counts_total = sum(ql.param_count for ql in qlayers)
    assert counts_total <= 50
    scores, _ = score_coordinates(qlayers, network, calib, "loss_aware")
    ranked = ranked_coordinates(qlayers, scores)
    predicted = ranked[0][2:]
    base = _net.batch_loss(
        dequantized_network(network.spec, qlayers), calib.records, calib.labels()
    )
    best = None
    for _, magnitude, li, gi, ci in ranked:
        trial = without_coordinate(qlayers, li, gi, ci)
        loss = _net.batch_loss(
            dequantized_network(network.spec, trial), calib.records, calib.labels()
        )
        key = (loss - base, magnitude, li, gi, ci)
        if best is None or key < best[0]:
            best = (key, (li, gi, ci))
    assert predicted == best[1]
    _record(3, "base/coordinate/refinement/pruning oracles agree (4,000+ cases)")


def test_criterion_04_lossless_regime(trained_network, desk_data):
    _, test_set = desk_data
    # snap to an exactly representable model, then re-quantize losslessly
    snapped = dequantize(uniform_baseline(trained_network, 1, 16))
    config = AlqConfig(group_size=16, i_max=2, prune_rate=0.0, scorer="magnitude",
                       refine_iters=0, seed=0)
    model, _ = alq_pipeline(snapped, None, config)
    back = dequantize(model)
    for idx, _name in _net.parameterized_layers(snapped.spec):
        np.testing.assert_allclose(
            _net.flatten_params(back, idx), _net.flatten_params(snapped, idx), atol=1e-6
        )
    records = test_set.records[:100]
    assert len(records) == 100
    qlog = QuantExecutor(model).logits(records)
    flog = _net.logits_batch(snapped, records)
    assert np.abs(qlog - flog).max() <= 1e-5
    assert np.array_equal(qlog.argmax(axis=1), flog.argmax(axis=1))
    _record(4, "lossless regime: packed-bit and full-precision paths agree "
               "(<=1e-5/logit, 100/100 argmax)")


def test_criterion_05_serialization_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(500):
        model = random_model(rng)
        data = bitpack.serialize_bytes(model)
        back = bitpack.deserialize_bytes(data)
        assert models_equal(model, back)
        assert bitpack.serialize_bytes(back) == data
    _record(5, "500 random models serialize/deserialize bitwise")


@pytest.fixture(scope="module")
def desk_quantized(trained_network, desk_data):
    train_set, _ = desk_data
    config = AlqConfig(
        group_size=16, i_max=3, target_avg_bitwidth=2.0, scorer="loss_aware",
        refine_iters=3, calib_batch=64, seed=11,
    )
    model, report = alq_pipeline(trained_network, train_set, config)
    return config, model, report


def test_criterion_06_desk_scale_end_to_end(trained_network, desk_data, desk_quantized):
    train_set, test_set = desk_data
    assert len(train_set) + len(test_set) == 17 * 40

    _, full_report = evaluate(trained_network, test_set)
    assert full_report.oa >= 95.0

    config, model, report = desk_quantized
    assert report.avg_bitwidth_final <= 2.0
    _, quant_report = evaluate(model, test_set)
    assert full_report.oa - quant_report.oa <= 5.0

    mem = bitpack.memory_report(model)
    assert mem.compression_rate >= 15.0
    digest = hashlib.sha256(bitpack.serialize_bytes(model)).hexdigest()
    assert digest == DESK_ALQQ_SHA256
    _record(6, f"desk scale: full OA {full_report.oa:.2f}%, quantized OA "
               f"{quant_report.oa:.2f}% at {mem.compression_rate:.1f}x compression")


def test_group11_refinement_digest(trained_network, desk_data):
    train_set, _ = desk_data
    config = AlqConfig(group_size=11, i_max=3, target_avg_bitwidth=2.0, scorer="loss_aware",
                       refine_iters=4, calib_batch=64, seed=11)
    model, _ = alq_pipeline(trained_network, train_set, config)
    digest = hashlib.sha256(bitpack.serialize_bytes(model)).hexdigest()
    assert digest == DESK_G11_ALQQ_SHA256


def test_criterion_07_sweep_shape(trained_network, desk_data):
    train_set, test_set = desk_data
    config = AlqConfig(group_size=16, i_max=2, prune_rate=0.0, scorer="loss_aware",
                       refine_iters=3, calib_batch=64, seed=11)
    points = sweep(trained_network, train_set, test_set,
                   [0.0, 0.25, 0.5, 0.75, 0.95], config)
    bitwidths = [p.avg_bitwidth for p in points]
    assert all(a > b for a, b in zip(bitwidths, bitwidths[1:]))
    assert points[-1].calib_loss > points[0].calib_loss
    sweep_json = canonical_json_bytes([p.__dict__ for p in points])
    assert hashlib.sha256(sweep_json).hexdigest() == SWEEP_JSON_SHA256
    _record(7, "sweep: bitwidth strictly decreasing, loss(0.95) > loss(0)")


def test_importance_ordering_under_heavy_pruning(trained_network, desk_data):
    # loss-aware pruning toward a 1.37 average should keep more bits in the
    # output layer and the second conv block than in the late conv blocks
    train_set, _ = desk_data
    config = AlqConfig(group_size=16, i_max=2, target_avg_bitwidth=1.37,
                       scorer="loss_aware", refine_iters=0, calib_batch=64, seed=11)
    model, _ = alq_pipeline(trained_network, train_set, config)
    names = dict(_net.parameterized_layers(model.spec))
    widths = {names[ql.layer_index]: average_bitwidth(ql)[1] for ql in model.layers}
    assert widths["Softmax"] > widths["Conv1D_6"]
    assert widths["Softmax"] > widths["Conv1D_7"]
    assert widths["Conv1D_2"] > widths["Conv1D_6"]
    assert widths["Conv1D_2"] > widths["Conv1D_7"]


def test_criterion_08_metrics_correctness():
    cm = ConfusionMatrix(np.array([[5, 0], [1, 4]]))
    rep = metrics(cm)
    assert rep.oa == pytest.approx(90.0)
    assert rep.sen == pytest.approx(90.0)
    assert rep.spe == pytest.approx(90.0)

    perfect = metrics(ConfusionMatrix(np.eye(17, dtype=np.int64) * 2))
    assert perfect.oa == perfect.sen == perfect.spe == pytest.approx(100.0)

    rng = np.random.default_rng(5)
    truth = rng.integers(0, 17, size=200)
    preds = rng.integers(0, 17, size=200)
    base = metrics(confusion(preds, truth))
    perm = rng.permutation(17)
    permuted = metrics(confusion(perm[preds], perm[truth]))
    assert permuted.oa == pytest.approx(base.oa)
    assert permuted.sen == pytest.approx(base.sen)
    assert permuted.spe == pytest.approx(base.spe)
    _record(8, "hand-computed 2-class metrics (90/90/90) and invariances hold")


def test_criterion_09_determinism(tmp_path, trained_network, desk_data, desk_quantized):
    # CLI pipeline, twice from scratch
    data_path = tmp_path / "d.csv"
    cli_run(["synth", "--n-per-class", "4", "--seed", "5", "--out", str(data_path)])
    for tag in ("a", "b"):
        assert cli_run(["train", "--data", str(data_path), "--epochs", "2",
                        "--seed", "7", "--out", str(tmp_path / f"{tag}.alqf")]) == 0
        assert cli_run(["quantize", "--model", str(tmp_path / f"{tag}.alqf"),
                        "--data", str(data_path), "--prune-rate", "0.25",
                        "--seed", "3", "--out", str(tmp_path / f"{tag}.alqq")]) == 0
        assert cli_run(["eval", "--model", str(tmp_path / f"{tag}.alqq"),
                        "--data", str(data_path),
                        "--out", str(tmp_path / f"rep_{tag}")]) == 0
    assert (tmp_path / "a.alqf").read_bytes() == (tmp_path / "b.alqf").read_bytes()
    assert (tmp_path / "a.alqq").read_bytes() == (tmp_path / "b.alqq").read_bytes()
    for name in ("metrics.json", "confusion.csv", "memory.json", "memory.txt"):
        assert (tmp_path / "rep_a" / name).read_bytes() == \
            (tmp_path / "rep_b" / name).read_bytes()

    # desk-scale quantization, twice in process
    config, model, _ = desk_quantized
    train_set, _ = desk_data
    again, _ = alq_pipeline(trained_network, train_set, config)
    assert bitpack.serialize_bytes(model) == bitpack.serialize_bytes(again)
    _record(9, "reruns are bitwise identical (checkpoints, models, reports)")
