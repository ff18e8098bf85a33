"""Tests of the benchmark itself, on its small smoke inputs.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from alqecg import bitpack, net, qinfer, quantizer  # noqa: E402

WORKLOADS = ["train", "quantize", "deploy"]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(stdout: str):
    """(report, result) from one run's standard output."""
    *report, last = stdout.strip().split("\n")
    return json.loads("\n".join(report)), json.loads(last)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke_runs(request):
    runs = {trace: bench(request.param, trace) for trace in (0, 1)}
    for proc in runs.values():
        assert proc.returncode == 0, proc.stderr
    return request.param, {trace: parse(p.stdout) for trace, p in runs.items()}


def test_every_metric_is_printed_with_its_unit(smoke_runs):
    _, runs = smoke_runs
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        report, result = runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == table
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        for metric in report["workload_metrics"].values():
            assert metric["unit"] and metric["samples"] >= 1
        assert report["checks"]["error_rate"] == 0.0


def test_workload_metrics_named_per_workload(smoke_runs):
    workload, runs = smoke_runs
    expected = {
        "train": {"train_records_per_s"},
        "quantize": {"quantize_s", "container_bytes", "quant_calib_loss"},
        "deploy": {"time_to_first_label_s", "qinfer_records_per_s", "qinfer_b1_p50_ms",
                   "qinfer_b1_tail_ms", "qinfer_b1_tail_percentile",
                   "fp_records_per_s", "qinfer_oa"},
    }[workload]
    assert set(runs[0][0]["workload_metrics"]) == expected


def test_same_seed_runs_give_equal_digests(smoke_runs):
    workload, runs = smoke_runs
    digests = [runs[trace][0]["digests"] for trace in (0, 1)]
    assert digests[0] == digests[1]
    produced = {"train": ["checkpoint"], "quantize": ["checkpoint", "alqq"],
                "deploy": ["checkpoint", "alqq", "labels"]}[workload]
    for key in produced:
        assert len(digests[0][key]) == 64


def test_traced_run_reports_the_layers_it_exercises(smoke_runs):
    workload, runs = smoke_runs
    layers = {k: v["value"] for k, v in runs[1][1]["metrics"].items()}
    busy = {
        "train": ["data.load_dataset_s", "net.train_epoch_s", "net.save_checkpoint_s"],
        "quantize": ["quantizer.init_decompose_calls", "quantizer.optimize_coords_calls",
                     "net.loss_gradients_s", "bitpack.serialize_bytes_calls"],
        "deploy": ["bitpack.deserialize_bytes_s", "qinfer.plan_build_s",
                   "qinfer.logits_b1_s", "qinfer.addsub_per_record",
                   "net.predict_batch_s", "metrics.evaluate_s"],
    }[workload]
    for name in busy:
        assert layers[name] > 0, name
    assert layers["trace.traced_to_untraced_ratio"] > 0
    assert runs[1][0]["tracing"]["untraced_targets"] == []
    if workload == "deploy":
        assert layers["qinfer.plan_builds_per_predict"] == 1.0
    if workload == "train":
        assert layers["quantizer.init_decompose_calls"] == 0


def test_perturbed_logit_is_a_failure():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=(5, 17))
    assert workloads.logits_failures(ref.copy(), ref) == 0
    bumped = ref.copy()
    bumped[2, 4] += 1e-3
    assert workloads.logits_failures(bumped, ref) == 1


def test_perturbed_container_byte_is_a_failure():
    sizes = workloads.SMOKE
    spec = workloads.network_spec(sizes)
    train_set, _ = workloads.make_split(3, 2)
    network = net.init_params(spec, 3)
    model, _ = quantizer.alq_pipeline(network, train_set, workloads.quantize_config(3))
    blob = bitpack.serialize_bytes(model)
    records = train_set.records[:4]
    ref = net.logits_batch(qinfer.dequantize(bitpack.deserialize_bytes(blob)), records)

    clean = workloads.Checker()
    workloads.check_container(clean, blob, ref, records)
    assert clean.attempted > 0 and clean.failed == 0

    damaged = bytearray(blob)
    damaged[-1] ^= 0xFF
    checker = workloads.Checker()
    workloads.check_container(checker, bytes(damaged), ref, records)
    assert checker.failed >= 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_process_result_and_failure():
    assert run.in_child(lambda: {"value": 7}) == {"value": 7}
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        run.in_child(lambda: 1 / 0)
