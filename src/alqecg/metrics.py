"""Confusion matrices, accuracy metrics, pruning sweeps, and report files.

Overall accuracy is trace/N. Sensitivity and specificity are macro averages
of the one-vs-rest per-class rates; classes absent from the truth labels are
excluded from the sensitivity mean and listed in the report. ``oa_ovr_sum``
additionally exposes the summed one-vs-rest variant sum_i (TP_i + TN_i) / N,
which by construction exceeds 100 for multi-class data.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import bitpack, net as _net, qinfer
from .data import Dataset
from .errors import ShapeError
from .net import Network
from .quantizer import (
    AlqConfig,
    QuantModel,
    calib_loss,
    calib_subset,
    check_group_size,
    init_layers,
    model_avg_bitwidth,
    prune_coordinates,
    refine_layers,
    score_coordinates,
)
from .util import canonical_json_bytes

log = logging.getLogger(__name__)


@dataclass
class ConfusionMatrix:
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ShapeError("confusion matrix must be square")
        if (self.counts < 0).any():
            raise ShapeError("confusion counts must be >= 0")

    @property
    def class_count(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalized(self) -> np.ndarray:
        """Rows divided by their sums; all-zero rows stay zero."""
        sums = self.counts.sum(axis=1, keepdims=True)
        return np.divide(
            self.counts, sums, out=np.zeros(self.counts.shape), where=sums > 0
        )


def confusion(preds, truth, class_count: int = 17) -> ConfusionMatrix:
    """Tally counts[true][predicted] over paired label lists."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1 or preds.size == 0:
        raise ShapeError("preds and truth must be equal-length non-empty 1-D")
    if preds.min() < 0 or truth.min() < 0 or max(preds.max(), truth.max()) >= class_count:
        raise ShapeError(f"labels must lie in 0..{class_count - 1}")
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (truth, preds), 1)
    return ConfusionMatrix(counts)


@dataclass
class MetricsReport:
    oa: float
    spe: float
    sen: float
    per_class_sensitivity: list
    per_class_specificity: list
    n: int
    excluded_classes: list
    oa_ovr_sum: float

    def to_json_dict(self) -> dict:
        clean = lambda v: None if v is None or not np.isfinite(v) else float(v)
        out = asdict(self)
        for key in ("per_class_sensitivity", "per_class_specificity"):
            out[key] = [clean(v) for v in out[key]]
        return out


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Macro one-vs-rest metrics from a confusion matrix."""
    n = cm.total
    if n == 0:
        raise ShapeError("confusion matrix is empty")
    counts = cm.counts
    k = cm.class_count
    tp = np.diag(counts).astype(np.float64)
    row = counts.sum(axis=1).astype(np.float64)
    col = counts.sum(axis=0).astype(np.float64)
    fn = row - tp
    fp = col - tp
    tn = n - tp - fn - fp

    supported = row > 0
    sen_pc = np.where(supported, tp / np.where(row > 0, row, 1.0), np.nan) * 100.0
    rest = tn + fp
    spe_pc = np.where(rest > 0, tn / np.where(rest > 0, rest, 1.0), np.nan) * 100.0

    oa = float(tp.sum() / n * 100.0)
    sen = float(np.nanmean(sen_pc)) if supported.any() else 0.0
    spe = float(np.nanmean(spe_pc)) if (rest > 0).any() else 0.0
    return MetricsReport(
        oa=oa,
        spe=spe,
        sen=sen,
        per_class_sensitivity=[None if not s else float(v) for s, v in zip(supported, sen_pc)],
        per_class_specificity=[None if not np.isfinite(v) else float(v) for v in spe_pc],
        n=n,
        excluded_classes=[int(c) for c in np.flatnonzero(~supported)],
        oa_ovr_sum=float((tp + tn).sum() / n * 100.0),
    )


def predict_labels(model, records) -> np.ndarray:
    """Argmax class per record (ties resolve to the lowest class index)."""
    if isinstance(model, QuantModel):
        probs = qinfer.predict_batch(model, records)
    else:
        probs = _net.predict_batch(model, records)
    return probs.argmax(axis=1)


def evaluate(model, test: Dataset) -> tuple[ConfusionMatrix, MetricsReport]:
    """Run the matching forward path over a test set and aggregate."""
    if len(test.records) == 0:
        raise ShapeError("empty test set")
    preds = predict_labels(model, test.records)
    cm = confusion(preds, test.labels(), test.class_count)
    return cm, metrics(cm)


# ---------------------------------------------------------------------------
# pruning sweep


@dataclass
class SweepPoint:
    """One pruning rate: bitwidths, calibration losses, and test accuracy.

    ``avg_bitwidth`` and ``calib_loss`` describe the pruned model before
    refinement (the series that is monotone in the rate); the ``*_refined``
    fields describe the final model that ``test_oa`` is measured on.
    """

    prune_rate: float
    avg_bitwidth: float
    calib_loss: float
    avg_bitwidth_refined: float
    calib_loss_refined: float
    test_oa: float


def sweep(
    network: Network,
    calib: Dataset,
    test: Dataset,
    rates,
    config: AlqConfig,
) -> list[SweepPoint]:
    """Re-prune one shared initial decomposition at each rate and evaluate."""
    rates = [float(r) for r in rates]
    if rates != sorted(rates) or any(not 0.0 <= r < 1.0 for r in rates):
        raise ShapeError("rates must be ascending and within [0, 1)")
    check_group_size(network.spec, config.group_size)
    initial = init_layers(network, config.group_size, config.i_max)
    batch = calib_subset(calib, config)
    scores, _ = score_coordinates(
        initial, network, batch, config.scorer, config.curvature_weight
    )

    points = []
    for rate in rates:
        layers = prune_coordinates(initial, scores, rate=rate)
        loss_pre = calib_loss(network.spec, layers, batch)
        bw_pre = model_avg_bitwidth(layers)
        layers = refine_layers(network, layers, config.refine_iters)
        loss_post = calib_loss(network.spec, layers, batch)
        _, rep = evaluate(QuantModel(network.spec, layers, config.group_size), test)
        points.append(
            SweepPoint(rate, bw_pre, loss_pre, model_avg_bitwidth(layers), loss_post, rep.oa)
        )
        log.info(
            "sweep rate %.2f: bitwidth %.4f -> %.4f, loss %.4f -> %.4f, OA %.2f%%",
            rate, bw_pre, points[-1].avg_bitwidth_refined, loss_pre, loss_post, rep.oa,
        )
    return points


# ---------------------------------------------------------------------------
# report files


def write_confusion_csv(path, cm: ConfusionMatrix, normalized: bool = False) -> None:
    grid = cm.normalized() if normalized else cm.counts
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true\\pred"] + [str(c) for c in range(cm.class_count)])
        for t in range(cm.class_count):
            row = [f"{v:.6f}" if normalized else str(int(v)) for v in grid[t]]
            writer.writerow([str(t)] + row)


def format_confusion_heat(cm: ConfusionMatrix) -> str:
    """Plain-text heat view: row-normalized percentages, '.' for exact zeros."""
    norm = cm.normalized() * 100.0
    k = cm.class_count
    head = "true\\pred " + " ".join(f"{c:>4d}" for c in range(k))
    lines = [head]
    for t in range(k):
        cells = [
            "   ." if cm.counts[t, p] == 0 else f"{norm[t, p]:>4.0f}" for p in range(k)
        ]
        lines.append(f"{t:>9d} " + " ".join(cells))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, points: list[SweepPoint]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["prune_rate", "avg_bitwidth", "calib_loss",
             "avg_bitwidth_refined", "calib_loss_refined", "test_oa"]
        )
        for p in points:
            writer.writerow(
                [f"{p.prune_rate:.6f}", f"{p.avg_bitwidth:.6f}", f"{p.calib_loss:.10g}",
                 f"{p.avg_bitwidth_refined:.6f}", f"{p.calib_loss_refined:.10g}",
                 f"{p.test_oa:.6f}"]
            )


def emit_reports(
    out_dir,
    metrics_report: MetricsReport | None = None,
    cm: ConfusionMatrix | None = None,
    memory: "bitpack.MemoryReport | None" = None,
    sweep_points: list[SweepPoint] | None = None,
) -> list[Path]:
    """Write whichever reports were produced; content is a pure function of inputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name, data: bytes):
        path = out_dir / name
        path.write_bytes(data)
        written.append(path)

    if metrics_report is not None:
        emit("metrics.json", canonical_json_bytes(metrics_report.to_json_dict()))
    if cm is not None:
        write_confusion_csv(out_dir / "confusion.csv", cm)
        written.append(out_dir / "confusion.csv")
        write_confusion_csv(out_dir / "confusion_normalized.csv", cm, normalized=True)
        written.append(out_dir / "confusion_normalized.csv")
        emit("confusion_heat.txt", format_confusion_heat(cm).encode())
    if memory is not None:
        emit("memory.json", canonical_json_bytes(memory.to_json_dict()))
        emit("memory.txt", memory.format_table().encode())
    if sweep_points is not None:
        write_sweep_csv(out_dir / "sweep.csv", sweep_points)
        written.append(out_dir / "sweep.csv")
        emit(
            "sweep.json",
            canonical_json_bytes([p.__dict__ for p in sweep_points]),
        )
    return written
