#!/usr/bin/env python3
"""Benchmark of the alqecg train / quantize / deploy loop.

    python3 bench/run.py --workload {train,quantize,deploy} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and imports the package from
``src/``. One run is a single closed-loop client: set-up makes the inputs
from the seed, then operations repeat until ``--seconds`` have passed and
every output is checked. A report goes to stdout, and the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--smoke`` uses a small network and dataset for the
benchmark's own tests. See bench/README.md for what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One thread for BLAS and for the package's own worker pool. A single client
# on a small shared machine measures most steadily without oversubscription;
# the value is recorded with every result.
THREADS = 1
THREAD_VARS = ("ALQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_s": "s",
    "work_per_s": "1/s",
}

# Per-layer metric -> unit. Time metrics are self time per traced pass;
# "_calls" metrics are calls per traced pass. Idle layers report 0.
PER_LAYER = {
    "data.load_dataset_s": "s",
    "data.normalize_dataset_s": "s",
    "net.train_epoch_s": "s",
    "net.save_checkpoint_s": "s",
    "net.loss_gradients_s": "s",
    "net.batch_loss_s": "s",
    "net.predict_batch_s": "s",
    "net.load_checkpoint_s": "s",
    "quantizer.init_decompose_s": "s",
    "quantizer.init_decompose_calls": "count",
    "quantizer.score_coordinates_s": "s",
    "quantizer.prune_coordinates_s": "s",
    "quantizer.optimize_bases_s": "s",
    "quantizer.optimize_bases_calls": "count",
    "quantizer.optimize_coords_s": "s",
    "quantizer.optimize_coords_calls": "count",
    "quantizer.dequantized_network_s": "s",
    "quantizer.refine_improved_ratio": "ratio",
    "bitpack.serialize_bytes_s": "s",
    "bitpack.serialize_bytes_calls": "count",
    "bitpack.deserialize_bytes_s": "s",
    "qinfer.plan_build_s": "s",
    "qinfer.plan_builds_per_predict": "ratio",
    "qinfer.logits_b1_s": "s",
    "qinfer.logits_batch_s": "s",
    "qinfer.addsub_per_record": "count",
    "metrics.evaluate_s": "s",
    "metrics.predict_labels_s": "s",
    "trace.traced_to_untraced_ratio": "ratio",
}

# Span name -> per-layer time / call metrics fed by it.
SPAN_METRICS = {
    "data.load_dataset": ("data.load_dataset_s", None),
    "data.normalize_dataset": ("data.normalize_dataset_s", None),
    "net.save_checkpoint": ("net.save_checkpoint_s", None),
    "net.loss_gradients": ("net.loss_gradients_s", None),
    "net.batch_loss": ("net.batch_loss_s", None),
    "net.predict_batch": ("net.predict_batch_s", None),
    "net.load_checkpoint": ("net.load_checkpoint_s", None),
    "quantizer.init_decompose": ("quantizer.init_decompose_s", "quantizer.init_decompose_calls"),
    "quantizer.score_coordinates": ("quantizer.score_coordinates_s", None),
    "quantizer.prune_coordinates": ("quantizer.prune_coordinates_s", None),
    "quantizer.optimize_bases": ("quantizer.optimize_bases_s", "quantizer.optimize_bases_calls"),
    "quantizer.optimize_coords": ("quantizer.optimize_coords_s", "quantizer.optimize_coords_calls"),
    "quantizer.dequantized_network": ("quantizer.dequantized_network_s", None),
    "bitpack.serialize_bytes": ("bitpack.serialize_bytes_s", "bitpack.serialize_bytes_calls"),
    "bitpack.deserialize_bytes": ("bitpack.deserialize_bytes_s", None),
    "qinfer.plan_build": ("qinfer.plan_build_s", None),
    "metrics.evaluate": ("metrics.evaluate_s", None),
    "metrics.predict_labels": ("metrics.predict_labels_s", None),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["train", "quantize", "deploy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small network and dataset, for the benchmark's tests")
    return ap.parse_args(argv)


def machine_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Counters:
    """Counts taken by trace hooks during traced operations."""

    def __init__(self):
        self.coords_calls = 0
        self.coords_improved = 0
        self.quant_predicts = 0


def trace_targets(counters: Counters):
    """(owner, attribute path, span name, after-hook) for every traced call."""
    import numpy as np
    from alqecg import bitpack, data, metrics, net, qinfer, quantizer

    def count_improved(args, kwargs, result):
        # optimize_coords(group, q): did the new decomposition lower the error?
        if len(args) < 2 or not hasattr(args[0], "values"):
            return
        q = args[1]
        if not (hasattr(q, "reconstruct") and hasattr(result, "reconstruct")):
            return
        w = args[0].values
        before = np.linalg.norm(w - q.reconstruct())
        after = np.linalg.norm(w - result.reconstruct())
        counters.coords_calls += 1
        counters.coords_improved += int(after < before)

    def count_quant_predict(args, kwargs, result):
        if args and isinstance(args[0], quantizer.QuantModel):
            counters.quant_predicts += 1

    def logits_name(args, kwargs):
        records = args[1] if len(args) > 1 else kwargs.get("records", ())
        return "qinfer.logits.b1" if len(records) == 1 else "qinfer.logits.batch"

    targets = []
    for module, names in [
        (data, ["load_dataset", "normalize_dataset"]),
        (net, ["train", "save_checkpoint", "load_checkpoint", "loss_gradients",
               "batch_loss", "predict_batch"]),
        (quantizer, ["alq_pipeline", "init_decompose", "score_coordinates",
                     "prune_coordinates", "optimize_bases", "dequantized_network"]),
        (bitpack, ["serialize_bytes", "deserialize_bytes", "memory_report"]),
        (metrics, ["evaluate"]),
    ]:
        short = module.__name__.rsplit(".", 1)[-1]
        targets += [(module, name, f"{short}.{name}", None) for name in names]
    targets += [
        (quantizer, "optimize_coords", "quantizer.optimize_coords", count_improved),
        (metrics, "predict_labels", "metrics.predict_labels", count_quant_predict),
        (qinfer, "QuantExecutor.__init__", "qinfer.plan_build", None),
        (qinfer, "QuantExecutor.logits", logits_name, None),
    ]
    return targets


def per_layer_metrics(total, n, counters, addsub, overhead) -> dict:
    """Per-layer metrics from the span summary of ``n`` traced passes."""
    from workloads import TRAIN_EPOCHS

    empty = {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    out = {}
    for span, (time_metric, calls_metric) in SPAN_METRICS.items():
        row = total.get(span, empty)
        out[time_metric] = row["self_s"] / n
        if calls_metric:
            out[calls_metric] = row["calls"] / n
    out["net.train_epoch_s"] = total.get("net.train", empty)["total_s"] / n / TRAIN_EPOCHS
    for key, span in (("qinfer.logits_b1_s", "qinfer.logits.b1"),
                      ("qinfer.logits_batch_s", "qinfer.logits.batch")):
        row = total.get(span, empty)
        out[key] = row["self_s"] / row["calls"] if row["calls"] else 0.0
    builds = total.get("qinfer.plan_build", empty)["calls"]
    out["qinfer.plan_builds_per_predict"] = (
        builds / counters.quant_predicts if counters.quant_predicts else 0.0)
    out["quantizer.refine_improved_ratio"] = (
        counters.coords_improved / counters.coords_calls if counters.coords_calls else 0.0)
    out["qinfer.addsub_per_record"] = addsub
    out["trace.traced_to_untraced_ratio"] = overhead
    return out


def _child_main(fn, conn) -> None:
    try:
        conn.send((True, fn()))
    except BaseException:  # reported by the parent, which then fails
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def in_child(fn):
    """Runs ``fn()`` in a forked child process and returns its result.

    Set-up and the reference outputs run this way, so the parent's peak
    resident memory is that of the measured operations alone.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main, args=(fn, send))
    child.start()
    send.close()
    try:
        ok, value = recv.recv()
    except EOFError:
        ok, value = False, "child process ended without a result"
    finally:
        child.join()
        recv.close()
    if not ok:
        raise RuntimeError(f"child process failed:\n{value}")
    return value


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    src = ROOT / "src"
    if not (src / "alqecg" / "__init__.py").is_file():
        print(f"error: no alqecg package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args, workdir: Path) -> int:
    # imported only after the thread variables are set and src/ is on the path
    import numpy as np
    import tracing
    import workloads

    checker = workloads.Checker()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)

    setup_times, setup_digests = [], []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        setup_digests.append(in_child(wl.setup))
        setup_times.append(time.perf_counter() - t0)
    checker.check("set-up repeats give identical inputs",
                  all(d == setup_digests[0] for d in setup_digests))
    # the operations must reproduce the bytes that set-up wrote
    wl.digests.update((k, v) for k, v in setup_digests[0].items() if k in wl.digests)
    wl.ref, checker = in_child(lambda: (wl.prepare(checker), checker))

    # Passes run until --seconds have passed; a traced run alternates
    # untraced and traced passes.
    counters = Counters()
    tracer = tracing.Tracer(trace_targets(counters))
    results, traced_results = [], []
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        for part in wl.parts:
            gc.collect()
            if traced:
                tracer.install()
            try:
                result = wl.op(part)
            finally:
                tracer.uninstall()
            (traced_results if traced else results).append(result)
            wl.check(result, checker)
        passes += 1
        if time.perf_counter() >= deadline and (not args.trace or traced_results):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    e2e, workload_metrics = wl.summarize(results)
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_info(np),
        "samples": {"setup_s": len(setup_times), "ops_untraced": len(results),
                    "ops_traced": len(traced_results)},
        "setup_times_s": setup_times,
        "setup_peak_rss_mb": setup_peak_rss_mb,
        "op_times_s": workloads.part_times(results),
        "digests": dict(wl.digests, setup=setup_digests[0]),
        "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()},
        "workload_metrics": {
            k: {"value": v, "unit": u, "samples": n}
            for k, (v, u, n) in workload_metrics.items()
        },
        "checks": {"attempted": checker.attempted, "failed": checker.failed,
                   "error_rate": checker.failed / checker.attempted,
                   "failures": checker.failures[:20]},
    }
    if args.trace:
        traced_op, untraced_op = wl.pass_s(traced_results), wl.pass_s(results)
        layers = per_layer_metrics(tracer.summary(), len(traced_results) // len(wl.parts),
                                   counters, wl.addsub_per_record(), traced_op / untraced_op)
        report["per_layer"] = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        report["tracing"] = {"traced_pass_s": traced_op, "untraced_pass_s": untraced_op,
                           "untraced_targets": tracer.missing}
        chosen = report["per_layer"]
    else:
        chosen = report["end_to_end"]

    print(json.dumps(report, indent=1, default=float))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": chosen}, default=float))
    return 0


def main(argv=None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
