"""The train, quantize and deploy workloads and the checks on their outputs.

Each workload makes its inputs from the workload seed in ``setup``, derives
untimed reference outputs in ``prepare``, and then runs one closed-loop
operation per ``op`` call. ``check`` compares an operation's outputs with the
references; every failed comparison counts towards the run's error rate.
The package is called only through module attributes (``data.load_dataset``
and so on), so the tracer can wrap those calls from outside.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from alqecg import bitpack, data, metrics, net, qinfer, quantizer
from alqecg.errors import ContainerFormatError

# Small noise makes the records depend on the seed while keeping the classes
# separable, so the 8-epoch reference network is accurate on every seed.
NOISE_SIGMA = 0.05
# The network that quantize and deploy start from is trained from this fixed
# seed; the workload seed draws the calibration and test records. Networks
# trained from different seeds prune differently, and the quantizer's work
# would then vary between seeds as much as the machine's own noise.
REFERENCE_SEED = 0
TRAIN_FRACTION = 0.8
LOGIT_TOL = 1e-5


# train workload: epochs per operation
TRAIN_EPOCHS = 1
# deploy workload: single-record requests per pass
STREAM = 6


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark mode."""

    train_n_per_class: int  # train workload: records per class before the split
    ref_n_per_class: int  # quantize/deploy: records per class before the split
    ref_epochs: int  # quantize/deploy: epochs that train the input network
    smoke: bool


FULL = Sizes(train_n_per_class=20, ref_n_per_class=40, ref_epochs=8, smoke=False)
# A small network and dataset so the benchmark's own tests finish in seconds.
SMOKE = Sizes(train_n_per_class=2, ref_n_per_class=2, ref_epochs=1, smoke=True)


def network_spec(sizes: Sizes) -> net.NetworkSpec:
    if not sizes.smoke:
        return net.default_ecgnet_spec()
    return net.NetworkSpec([
        net.conv(16, 4, stride=8), net.pool(4, 4),
        net.conv(5, 4), net.pool(4, 4),
        net.flatten(), net.dense(8), net.softmax_dense(data.CLASS_COUNT),
    ])


def quantize_config(seed: int) -> quantizer.AlqConfig:
    """Release criterion 6: group 16, i_max 3, 2.0 bits, loss-aware, 3 refines."""
    return quantizer.AlqConfig(group_size=16, i_max=3, target_avg_bitwidth=2.0,
                               scorer="loss_aware", refine_iters=3,
                               calib_batch=64, seed=seed)


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def labels_digest(labels) -> str:
    return sha256(np.asarray(labels, dtype="<i8").tobytes())


class Checker:
    """Counts checked outputs and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted}")

    def check(self, what: str, ok: bool) -> None:
        self.count(what, 1, 0 if ok else 1)


def log_softmax(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def logits_failures(logits, ref_logits) -> int:
    """Rows more than LOGIT_TOL from the reference or with another argmax.

    Both sides are compared as log-probabilities (logits minus their
    log-sum-exp), so logits and the log of predicted probabilities compare.
    """
    logits, ref_logits = log_softmax(logits), log_softmax(ref_logits)
    far = np.abs(logits - ref_logits).max(axis=1) > LOGIT_TOL
    moved = logits.argmax(axis=1) != ref_logits.argmax(axis=1)
    return int(np.count_nonzero(far | moved))


def predicted_logits(model, records) -> np.ndarray:
    """Log-probabilities from ``qinfer.predict_batch``, the path that
    ``metrics.predict_labels`` and ``metrics.evaluate`` take."""
    return np.log(qinfer.predict_batch(model, records))


def check_container(checker: Checker, blob: bytes, ref_logits, records) -> None:
    """An ``ALQQ`` blob must load, re-serialize to itself and match the logits.

    The predictions for ``records``, all in one batch, are compared with the
    dequantized fp reference ``ref_logits``, row by row.
    """
    try:
        model = bitpack.deserialize_bytes(blob)
    except ContainerFormatError as exc:
        checker.check(f"container rejected ({exc})", False)
        return
    checker.check("container round trip", bitpack.serialize_bytes(model) == blob)
    checker.count("predicted logits vs dequantized reference", len(records),
                  logits_failures(predicted_logits(model, records), ref_logits))


def make_split(seed: int, n_per_class: int):
    ds = data.synth_generate(n_per_class, seed=seed, noise_sigma=NOISE_SIGMA)
    return data.split(ds, data.SplitSpec(TRAIN_FRACTION, seed=seed))


def train_reference(sizes: Sizes, ckpt: Path) -> None:
    """Train the reference network on REFERENCE_SEED's records; write ``ckpt``."""
    train_set, _ = make_split(REFERENCE_SEED, sizes.ref_n_per_class)
    train_set, _ = data.normalize_dataset(train_set)
    network = net.init_params(network_spec(sizes), REFERENCE_SEED)
    config = net.TrainConfig(epochs=sizes.ref_epochs, batch_size=32, seed=REFERENCE_SEED)
    net.save_checkpoint(net.train(network, train_set, config).network, ckpt)


def part_times(results) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for r in results:
        times.setdefault(r["part"], []).append(r["op_s"])
    return times


class Workload:
    """One workload. A pass runs the operations named in ``parts`` in turn."""

    name = ""
    setup_repeats = 1
    parts: tuple[str, ...] = ("op",)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.ref: dict = {}
        self.digests: dict[str, str | None] = {
            "checkpoint": None, "alqq": None, "labels": None,
        }

    def setup(self) -> dict[str, str]:
        """Make the inputs; returns the digests of the files written."""
        raise NotImplementedError

    def prepare(self, checker: Checker) -> dict:
        """Untimed reference outputs (and checks that need run only once).

        Returns the references, which become ``self.ref``; they must pickle,
        because the benchmark computes them in a child process.
        """
        return {}

    def op(self, part: str) -> dict:
        """Runs one operation; the result holds ``part`` and its time ``op_s``."""
        raise NotImplementedError

    def check(self, result: dict, checker: Checker) -> None:
        raise NotImplementedError

    def summarize(self, results: list[dict]) -> tuple[dict, dict]:
        """(end-to-end metric values, workload metrics as (value, unit, samples))."""
        raise NotImplementedError

    def pass_s(self, results: list[dict]) -> float:
        """Time of one pass: the sum over its parts of each part's median time."""
        medians = {p: statistics.median(t) for p, t in part_times(results).items()}
        return sum(medians[p] for p in self.parts)

    def addsub_per_record(self) -> int:
        """Sign-bit add/subtract steps per inferred record; 0 without inference."""
        return 0

    def _same_digest(self, checker: Checker, key: str, digest: str) -> None:
        if self.digests[key] is None:
            self.digests[key] = digest
        checker.check(f"{key} digest repeats", self.digests[key] == digest)


class TrainWorkload(Workload):
    """``alqecg train``: CSV load, normalize, init + train at batch 32, checkpoint."""

    name = "train"
    setup_repeats = 3

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.csv = workdir / "train.csv"
        self.ckpt = workdir / "model.alqf"

    def setup(self):
        train_set, _ = make_split(self.seed, self.sizes.train_n_per_class)
        data.save_dataset(self.csv, train_set, "csv")
        return {"train_csv": sha256(self.csv.read_bytes())}

    def op(self, part):
        t0 = time.perf_counter()
        ds = data.load_dataset(self.csv, "csv")
        ds, _ = data.normalize_dataset(ds)
        network = net.init_params(network_spec(self.sizes), self.seed)
        config = net.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=32, seed=self.seed)
        result = net.train(network, ds, config)
        net.save_checkpoint(result.network, self.ckpt)
        t1 = time.perf_counter()
        return {"part": part, "op_s": t1 - t0, "records": len(ds) * TRAIN_EPOCHS,
                "losses": result.epoch_losses, "checkpoint": self.ckpt.read_bytes()}

    def check(self, result, checker):
        checker.check("training losses finite",
                      bool(np.all(np.isfinite(result["losses"]))))
        self._same_digest(checker, "checkpoint", sha256(result["checkpoint"]))

    def summarize(self, results):
        op_s = self.pass_s(results)
        records_per_s = results[0]["records"] / op_s
        return ({"op_s": op_s, "work_per_s": records_per_s},
                {"train_records_per_s": (records_per_s, "1/s", len(results))})


class QuantizeWorkload(Workload):
    """``alqecg quantize``: checkpoint bytes -> ``alq_pipeline`` -> ``ALQQ`` bytes."""

    name = "quantize"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.ckpt = workdir / "model.alqf"
        self.config = quantize_config(seed)

    def setup(self):
        train_reference(self.sizes, self.ckpt)
        return {"checkpoint": sha256(self.ckpt.read_bytes())}

    def prepare(self, checker):
        calib, _ = make_split(self.seed, self.sizes.ref_n_per_class)
        calib, _ = data.normalize_dataset(calib)
        return {"calib": calib, "params": net.param_counts(network_spec(self.sizes))[1]}

    def op(self, part):
        t0 = time.perf_counter()
        network = net.load_checkpoint(self.ckpt)
        model, report = quantizer.alq_pipeline(network, self.ref["calib"], self.config)
        blob = bitpack.serialize_bytes(model)
        t1 = time.perf_counter()
        return {"part": part, "op_s": t1 - t0, "alqq": blob, "report": report}

    def check(self, result, checker):
        blob, report = result["alqq"], result["report"]
        checker.check("container round trip",
                      bitpack.serialize_bytes(bitpack.deserialize_bytes(blob)) == blob)
        checker.check("average bitwidth within target",
                      report.avg_bitwidth_final <= self.config.target_avg_bitwidth + 1e-9)
        losses = [report.calib_loss_init, report.calib_loss_pruned, report.calib_loss_final]
        checker.check("calibration losses finite", bool(np.all(np.isfinite(losses))))
        self._same_digest(checker, "alqq", sha256(blob))

    def summarize(self, results):
        op_s = self.pass_s(results)
        n = len(results)
        last = results[-1]
        return ({"op_s": op_s, "work_per_s": self.ref["params"] / op_s},
                {"quantize_s": (op_s, "s", n),
                 "container_bytes": (len(last["alqq"]), "bytes", n),
                 "quant_calib_loss": (last["report"].calib_loss_final, "nats", n)})


class DeployWorkload(Workload):
    """``alqecg eval`` on an ``ALQQ`` model plus single-record streaming.

    One pass runs these operations in turn, each timed on its own so that a
    run holds many short samples rather than a few long ones:

    - ``first``: ALQQ bytes -> ``deserialize_bytes`` -> first label;
    - ``eval``: load and normalize the raw-f32 test file, ``evaluate`` and
      ``memory_report``;
    - ``stream`` (STREAM times): one record through ``predict_labels``;
    - ``fp``: the same STREAM records through the fp checkpoint path.
    """

    name = "deploy"
    parts = ("first", "eval") + ("stream",) * STREAM + ("fp",)

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.ckpt = workdir / "model.alqf"
        self.alqq = workdir / "model.alqq"
        self.test_raw = workdir / "test.bin"
        self.model = None  # deserialized by the pass's first operation
        self.next_record = 0
        self.pass_labels = [None] * STREAM

    def setup(self):
        train_reference(self.sizes, self.ckpt)
        calib, raw_test = make_split(self.seed, self.sizes.ref_n_per_class)
        calib, _ = data.normalize_dataset(calib)
        network = net.load_checkpoint(self.ckpt)
        model, _ = quantizer.alq_pipeline(network, calib, quantize_config(self.seed))
        bitpack.serialize(model, self.alqq)
        # evaluation normalizes after loading, as `alqecg eval` does
        data.save_dataset(self.test_raw, raw_test, "raw-f32")
        return {"checkpoint": sha256(self.ckpt.read_bytes()),
                "alqq": sha256(self.alqq.read_bytes()),
                "test_raw": sha256(self.test_raw.read_bytes())}

    def prepare(self, checker):
        blob = self.alqq.read_bytes()
        test, _ = data.normalize_dataset(data.load_dataset(self.test_raw, "raw-f32"))
        model = bitpack.deserialize_bytes(blob)
        deq = qinfer.dequantize(model)
        ref_logits = np.concatenate([net.logits_batch(deq, test.records[i:i + 16])
                                     for i in range(0, len(test), 16)])
        ref_labels = ref_logits.argmax(axis=1)
        order = np.random.default_rng(self.seed).permutation(len(test))
        order = np.resize(order, STREAM)
        stream = [test.records[i] for i in order]
        fp = net.load_checkpoint(self.ckpt)

        # Every prediction the operations make, through the entry point they
        # use and at the batch size each uses: the whole test set at once,
        # and the streamed records one at a time.
        check_container(checker, blob, ref_logits, test.records)
        for i, rec in zip(order, stream):
            checker.count("predicted logits vs dequantized reference (B=1)", 1,
                          logits_failures(predicted_logits(model, [rec]),
                                          ref_logits[i:i + 1]))

        # sign bits x output positions, summed over the quantized layers
        shapes = net.propagate_shapes(model.spec)
        positions = {
            name: (shapes[idx][1] if model.spec.layers[idx].kind == net.CONV else 1)
            for idx, name in net.parameterized_layers(model.spec)
        }
        memory = bitpack.memory_report(model)
        return {
            "n_test": len(test),
            "confusion": metrics.confusion(ref_labels, test.labels(),
                                           test.class_count).counts,
            "stream": stream,
            "stream_labels": ref_labels[order],
            "fp_labels": np.array([net.logits_batch(fp, [r]).argmax() for r in stream]),
            "addsub": sum(row.base_bits * positions[row.name] for row in memory.rows),
        }

    def addsub_per_record(self) -> int:
        return self.ref["addsub"]

    def op(self, part):
        stream = self.ref["stream"]
        t0 = time.perf_counter()
        if part == "first":
            blob = self.alqq.read_bytes()
            self.model = bitpack.deserialize_bytes(blob)
            out = {"alqq": blob, "label": int(metrics.predict_labels(self.model, [stream[0]])[0])}
        elif part == "eval":
            test, _ = data.normalize_dataset(data.load_dataset(self.test_raw, "raw-f32"))
            cm, report = metrics.evaluate(self.model, test)
            bitpack.memory_report(self.model)
            out = {"confusion": cm.counts, "oa": report.oa, "n_eval": len(test)}
        elif part == "stream":
            j = self.next_record
            self.next_record = (j + 1) % STREAM
            out = {"index": j, "label": int(metrics.predict_labels(self.model, [stream[j]])[0])}
        else:
            fp = net.load_checkpoint(self.ckpt)
            out = {"labels": [int(metrics.predict_labels(fp, [rec])[0]) for rec in stream]}
        out.update(part=part, op_s=time.perf_counter() - t0)
        return out

    def check(self, result, checker):
        part = result["part"]
        if part == "first":
            blob = result["alqq"]
            self._same_digest(checker, "alqq", sha256(blob))
            checker.check("container round trip", bitpack.serialize_bytes(self.model) == blob)
            checker.check("first label", result["label"] == self.ref["stream_labels"][0])
        elif part == "eval":
            moved = int(np.abs(result["confusion"] - self.ref["confusion"]).sum()) // 2
            checker.count("evaluate labels vs dequantized reference", result["n_eval"], moved)
        elif part == "stream":
            j = result["index"]
            self.pass_labels[j] = result["label"]
            checker.check("streamed label vs dequantized reference",
                          result["label"] == self.ref["stream_labels"][j])
        else:
            checker.count("fp labels vs fp reference", STREAM, int(np.count_nonzero(
                np.array(result["labels"]) != self.ref["fp_labels"])))
            # the last operation of a pass: every streamed label of it is in
            self._same_digest(checker, "labels", labels_digest(self.pass_labels))

    def summarize(self, results):
        times = part_times(results)
        medians = {p: statistics.median(t) for p, t in times.items()}
        qinfer_rps = self.ref["n_test"] / medians["eval"]
        b1_ms = [s * 1e3 for s in times["stream"]]
        tail_ms, tail_pct = tail_percentile(b1_ms)
        n = {p: len(t) for p, t in times.items()}
        oa = [r["oa"] for r in results if r["part"] == "eval"][-1]
        return ({"op_s": self.pass_s(results), "work_per_s": qinfer_rps},
                {"time_to_first_label_s": (medians["first"], "s", n["first"]),
                 "qinfer_records_per_s": (qinfer_rps, "1/s", n["eval"]),
                 "qinfer_b1_p50_ms": (statistics.median(b1_ms), "ms", n["stream"]),
                 "qinfer_b1_tail_ms": (tail_ms, "ms", n["stream"]),
                 "qinfer_b1_tail_percentile": (tail_pct, "%", n["stream"]),
                 "fp_records_per_s": (STREAM / medians["fp"], "1/s", n["fp"]),
                 "qinfer_oa": (oa, "%", n["eval"])})


def tail_percentile(samples) -> tuple[float | None, float | None]:
    """The highest percentile with at least 10 samples beyond it, and its rank.

    Returns (value, percentile); (None, None) with fewer than 11 samples.
    """
    ordered = sorted(samples)
    idx = len(ordered) - 11
    if idx < 0:
        return None, None
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


WORKLOADS = {w.name: w for w in (TrainWorkload, QuantizeWorkload, DeployWorkload)}
