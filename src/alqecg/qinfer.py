"""Forward passes driven directly by sign bits, in bit-plane form.

A group w = B @ a contributes sum_k a_k (b_k . x) to its layer's outputs:
one add/subtract reduction per retained sign column b_k, scaled by its
coordinate. Groups follow flattened layer order (weights row-major, then
biases), so one group may span several output channels and the bias tail.
The part of a group on one output channel is a segment; with group size n,
a channel's s-th segment lies inside the s-th window of input columns,
``[s*n - left, s*n - left + width)``. ``left`` is 0 and ``width`` n when n
divides the layer's ``fan`` (its inputs per output position); otherwise
``left`` is n and ``width`` 2n, and a layer has at most ceil(fan / n) + 1
windows. From the layer's ``signs`` and ``coords`` arrays the engine builds

* ``M``, an int8 {-1, 0, +1} grid of shape (windows, K * outputs, width),
  K the layer's largest bitwidth: row ``k * outputs + o`` of window ``s``
  holds the k-th retained sign column of channel o's s-th segment, and rows
  with no segment behind them are zero;
* ``coords`` (outputs x windows * K), the coordinate a_k of each row;
* ``bias``, each channel's sum of a_k times the sign of its bias position.
  The bias input is the constant 1, so that reduction is done once, when
  the plan is built.

The executor supplies only these per-layer affine maps: ``net._forward_batch``,
the network's one layer walk, does the windowing, ReLU, pooling, flatten and
non-finite check for the bit-plane path exactly as for the fp path.

For inputs ``x`` shaped (records, fan, positions), where dense layers have
one position, a layer writes ``x`` once into a zero-padded column buffer,
computes ``z = M @ x_windows`` with a matmul over a strided (records,
windows, width, positions) view of it, and reduces every channel's rows
with a batched GEMV, ``y = coords @ z + bias``, over a strided (records,
outputs, windows * K, positions) view of ``z``. ``M`` is upcast to float64
once per call, so only one layer's float64 grid exists at a time. The
matmul and the GEMV run over chunks of records whose float64 ``z`` stays
within ``Z_BYTES`` (one record when a record's ``z`` alone is larger), so
a layer's largest transient does not grow with the block; a layer whose
whole ``z`` fits runs as one chunk. The dequantized weights are never
formed. Quantized layers are immutable, so each layer's plan is built once
and cached for as long as the layer lives. Records run in fixed blocks of
``BLOCK`` stacked per-record matmuls whose shapes do not depend on the
batch, so each record's arithmetic is independent of its batch: logits
are bitwise identical at every batch, block and chunk size. Each block's
inputs are stacked when the block runs, so the working memory is one
block's activations plus one chunk's ``z``, however many records there
are. The blocks are also the unit of parallel work: with ``ALQ_THREADS``
above one they run on a thread pool, which cannot change a byte of the
output.

Activations stay full-precision; accumulation is float64 so the bit-driven
path tracks the dequantized reference within tight tolerances.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import net as _net
from .net import Network
from .quantizer import QuantLayer, QuantModel, dequantized_network
from .util import worker_count

# records per stacked matmul
BLOCK = 8
# bytes of one layer's float64 bit-plane product held at a time
Z_BYTES = 1 << 20


def dequantize(model: QuantModel) -> Network:
    """Reconstruct the full-precision network from group decompositions."""
    return dequantized_network(model.spec, model.layers)


@dataclass
class LayerPlan:
    """Bit-plane form of one quantized layer on a (window, bit, channel) grid.

    Window ``s`` covers the input columns ``[s*n - left, s*n - left + width)``
    for group size ``n``, where ``width = n + left`` and ``left`` is 0 when
    ``n`` divides the fan and ``n`` otherwise, so every output channel's
    ``s``-th group segment lies inside window ``s``. Row ``k*outputs + o`` of
    ``M[s]`` holds the ``k``-th retained sign column of channel ``o``'s
    segment in window ``s``, and ``coords[o, s*K + k]`` its coordinate; rows
    with no segment behind them are zero, as are their coordinates. ``bias``
    is each channel's reduction of the constant bias input. ``M`` is int8;
    ``apply`` upcasts it once per call and runs it over chunks of records
    whose float64 product stays within ``Z_BYTES``.
    """

    M: np.ndarray  # (windows, K * outputs, width) int8 signs of the weight positions
    coords: np.ndarray  # (outputs, windows * K) coordinate of each row
    bias: np.ndarray  # (outputs,) sum of a_k * (sign of the bias position)
    group_size: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(records, ..., positions) inputs -> (records, outputs, positions).

        The middle axes of ``x`` flatten, row-major, to the layer's fan.
        """
        records, positions = x.shape[0], x.shape[-1]
        windows, rows, width = self.M.shape
        n, n_out = self.group_size, self.bias.size
        left, fan = width - n, int(np.prod(x.shape[1:-1]))
        buf = np.zeros((records, (windows - 1) * n + width, positions))
        # splitting the column axis gives a view, so x is written in place
        buf[:, left : left + fan].reshape(x.shape)[...] = x
        xs = _net._strided_windows(buf, 1, width, n).transpose(0, 1, 3, 2)
        M = self.M.astype(np.float64)  # exact, and held for this call only
        y = np.empty((records, n_out, positions))
        # records per chunk whose product z stays within Z_BYTES, at least one
        step = max(1, Z_BYTES // max(8 * windows * rows * positions, 1))
        for r in range(0, records, step):
            k = min(step, records - r)  # a fully pruned layer's z has no rows to infer it
            z = (M @ xs[r : r + step]).reshape(k, windows, rows // n_out, n_out, positions)
            z = z.transpose(0, 3, 1, 2, 4).reshape(k, n_out, self.coords.shape[1], positions)
            y[r : r + step] = (self.coords[:, None, :] @ z)[:, :, 0]
        y += self.bias[:, None]
        return y


def layer_plan(layer: QuantLayer, n_out: int, fan: int) -> LayerPlan:
    """Bit-plane plan of a layer with ``n_out`` outputs of ``fan`` inputs."""
    n, bits = layer.group_size, layer.signs.shape[2]
    left = 0 if fan % n == 0 else n
    # every flattened position's group and place in it; the partition is
    # standard, so position p is place p % n of group p // n
    g, j = np.divmod(np.arange(layer.param_count), n)
    w_total = n_out * fan
    # each weight's output channel, input column and window: its group's
    # index among the groups that hold the channel's weights
    out, col = np.divmod(np.arange(w_total), fan)
    s = g[:w_total] - out * fan // n
    windows = int(s.max()) + 1
    k = np.arange(bits)
    M = np.zeros((windows, bits * n_out, n + left), np.int8)
    M[s[:, None], k * n_out + out[:, None], (col - s * n + left)[:, None]] = \
        layer.signs[g[:w_total], j[:w_total]]
    coords = np.zeros((n_out, windows, bits))
    coords[out, s] = layer.coords[g[:w_total]]
    # the bias input is the constant 1, so its reduction is done here
    gb, jb = g[w_total:], j[w_total:]
    bias = (layer.coords[gb] * layer.signs[gb, jb]).sum(axis=1)
    return LayerPlan(M, coords.reshape(n_out, windows * bits), bias, n)


# plans by layer, then by (n_out, fan); a layer's entry goes with the layer
_PLANS: weakref.WeakKeyDictionary[QuantLayer, dict] = weakref.WeakKeyDictionary()


class QuantExecutor:
    """Bit-plane execution plans for one quantized model."""

    def __init__(self, model: QuantModel):
        self.model = model
        shapes = _net.param_shapes(model.spec)
        self.plans = {}
        for ql in model.layers:
            w_shape, _ = shapes[ql.layer_index]
            key = (w_shape[0], int(np.prod(w_shape[1:])))
            plans = _PLANS.setdefault(ql, {})
            if key not in plans:
                plans[key] = layer_plan(ql, *key)
            self.plans[ql.layer_index] = plans[key]

    def _affine(self, i: int, h: np.ndarray) -> np.ndarray:
        if h.ndim == 2:  # dense rows
            return self.plans[i].apply(h[:, :, None])[:, :, 0]
        return self.plans[i].apply(h.transpose(0, 1, 3, 2))  # conv windows

    def logits(self, records) -> np.ndarray:
        spec = self.model.spec

        def run(block):
            return _net._forward_batch(spec, _net._as_batch(spec, block), self._affine)

        # an empty batch is one empty block, so its logits are (0, classes)
        blocks = [records[i : i + BLOCK] for i in range(0, max(len(records), 1), BLOCK)]
        workers = min(worker_count(), len(blocks))
        if workers <= 1:
            return np.concatenate([run(b) for b in blocks])
        # numpy releases the GIL in the matmuls, so the blocks overlap
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(run, blocks)))

    def probs(self, records) -> np.ndarray:
        return np.exp(_net._log_softmax(self.logits(records)))


def predict_batch(model: QuantModel, records) -> np.ndarray:
    """Probabilities for many records, (n_records, class_count)."""
    return QuantExecutor(model).probs(records)
