"""Forward passes driven directly by sign bits, in bit-plane form.

A group w = B @ a contributes sum_k a_k (b_k . x) to its layer's outputs:
one add/subtract reduction per retained sign column b_k, scaled by its
coordinate. Groups follow flattened layer order (weights row-major, then
biases), so one group may span several output channels and the bias tail.
The engine therefore cuts every group into segments, one per output channel
it touches, and builds from the layer's ``signs`` and ``coords`` arrays

* ``M``, a {-1, 0, +1} matrix with one row per segment and retained bit and
  one column per input of an output position (the layer's ``fan``);
* a channel-slot layout: every row owns one of its output channel's ``R``
  slots, where ``R`` is the largest row count of any channel, and
  ``coords`` (outputs x R) holds each slot's coordinate a_k, 0 in the
  padding slots that hold no row;
* ``bias``, each channel's sum of a_k times the sign of its bias position.
  The bias input is the constant 1, so that reduction is done once, when
  the plan is built, and a row with only a bias position is dropped.

A layer computes ``z = M @ x`` into the slots of its rows, zeroes the
padding slots, and reduces each channel's slots with one batched GEMV,
``y = coords @ z + bias``, for inputs ``x`` shaped (records, fan,
positions); dense layers have one position. The dequantized weights are
never formed. A row of ``M`` touches at most one group's width of
consecutive inputs, so rows are ordered by their first column and each run
of rows with the same first column multiplies only that window of ``x``.
Quantized layers are immutable, so each layer's plan is built once and
cached for as long as the layer lives. Records run in fixed blocks of
stacked per-record matmuls whose shapes do not depend on the batch, so each
record's arithmetic is independent of its batch: logits are bitwise
identical at every batch size, and the blocks bound the working memory.

Activations stay full-precision; accumulation is float64 so the bit-driven
path tracks the dequantized reference within tight tolerances.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import net as _net
from .errors import NumericError
from .net import CONV, DENSE, FLATTEN, POOL, SOFTMAX_DENSE, Network
from .quantizer import QuantLayer, QuantModel, dequantized_network
from .util import chunked_rows

# records per stacked matmul
BLOCK = 16


def dequantize(model: QuantModel) -> Network:
    """Reconstruct the full-precision network from group decompositions."""
    return dequantized_network(model.spec, model.layers)


@dataclass
class LayerPlan:
    """Bit-plane form of one quantized layer in a channel-slot layout.

    Row ``r`` of ``M`` fills slot ``dest[r]`` of an (outputs x slots) grid,
    one of its output channel's slots; ``coords`` holds each slot's
    coordinate and is 0 at the slots in ``pad``, which hold no row. ``bias``
    is each channel's reduction of the constant bias input. Rows are sorted
    by the first input column they touch. A row spans at most ``width``
    consecutive columns, so the rows of one entry ``(lo, r0, r1)`` of
    ``windows`` read only the inputs ``lo:lo + width``.
    """

    M: np.ndarray  # (rows, fan) signs of the weight positions
    dest: np.ndarray  # (rows,) slot of each row: channel * slots + rank
    coords: np.ndarray  # (outputs, slots) coordinate of each slot's row
    pad: np.ndarray  # slots that hold no row
    bias: np.ndarray  # (outputs,) sum of a_r * (sign of r's bias position)
    width: int
    windows: list[tuple[int, int, int]]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(records, fan, positions) inputs -> (records, outputs, positions)."""
        n_out, slots = self.coords.shape
        z = np.empty((x.shape[0], n_out * slots, x.shape[2]))
        z[:, self.pad] = 0.0
        for lo, r0, r1 in self.windows:
            hi = lo + self.width
            z[:, self.dest[r0:r1]] = self.M[r0:r1, lo:hi] @ x[:, lo:hi]
        z = z.reshape(x.shape[0], n_out, slots, x.shape[2])
        return (self.coords[:, None, :] @ z)[:, :, 0] + self.bias[:, None]


def layer_plan(layer: QuantLayer, n_out: int, fan: int) -> LayerPlan:
    """Bit-plane plan of a layer with ``n_out`` outputs of ``fan`` inputs."""
    sizes, bits = layer.sizes, layer.bits
    # every flattened position: its group, output channel and input column;
    # bias positions take column fan
    g, j = np.nonzero(np.arange(sizes.max()) < sizes[:, None])
    pos = (np.cumsum(sizes) - sizes)[g] + j
    w_total = n_out * fan
    out = np.where(pos < w_total, pos // fan, pos - w_total)
    col = np.where(pos < w_total, pos % fan, fan)
    # one row per (group, output channel) segment and retained bit
    seg_key, seg = np.unique(g * n_out + out, return_inverse=True)
    seg_g, seg_out = np.divmod(seg_key, n_out)
    s, k = np.nonzero(np.arange(bits.max()) < bits[seg_g][:, None])
    row = np.zeros((seg_key.size, bits.max()), dtype=np.intp)
    row[s, k] = np.arange(s.size)
    p, pk = np.nonzero(np.arange(bits.max()) < bits[g][:, None])
    m = np.zeros((s.size, fan + 1))
    m[row[seg[p], pk], col[p]] = layer.signs[g[p], j[p], pk]
    a, ch = layer.coords[seg_g[s], k], seg_out[s]
    # the bias input is the constant 1, so its reduction is done here; a row
    # that touches no weight column has nothing left to compute
    bias = np.bincount(ch, weights=a * m[:, fan], minlength=n_out)
    lo = (m[:, :fan] != 0).argmax(axis=1)
    kept = np.flatnonzero(m[np.arange(s.size), lo])
    a, ch, lo = a[kept], ch[kept], lo[kept]
    # each row's slot is its rank among its channel's rows, in row order
    counts = np.bincount(ch, minlength=n_out)
    slots = int(counts.max(initial=0))
    by_ch = np.argsort(ch, kind="stable")
    rank = np.empty_like(by_ch)
    rank[by_ch] = np.arange(ch.size) - (np.cumsum(counts) - counts)[ch[by_ch]]
    dest = ch * slots + rank
    coords = np.zeros(n_out * slots)
    coords[dest] = a
    pad = np.flatnonzero(np.arange(slots) >= counts[:, None])
    order = np.argsort(lo, kind="stable")
    starts, r0 = np.unique(lo[order], return_index=True)
    windows = list(zip(starts.tolist(), r0.tolist(), r0[1:].tolist() + [ch.size]))
    return LayerPlan(m[kept[order], :fan], dest[order], coords.reshape(n_out, slots), pad,
                     bias, int(sizes.max()), windows)


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

    def _block_logits(self, h: np.ndarray) -> np.ndarray:
        bsz = h.shape[0]
        for i, layer in enumerate(self.model.spec.layers):
            if layer.kind == CONV:
                win = _net._windows(h, layer.kernel, layer.stride, layer.padding)
                _, c, t, k = win.shape
                h = self.plans[i].apply(win.transpose(0, 1, 3, 2).reshape(bsz, c * k, t))
                if layer.activation == "relu":
                    h = np.maximum(h, 0.0)
            elif layer.kind == POOL:
                h = _net._pool_max(h, layer.kernel, layer.stride)
            elif layer.kind == FLATTEN:
                h = h.reshape(bsz, -1)
            elif layer.kind in (DENSE, SOFTMAX_DENSE):
                h = self.plans[i].apply(h[:, :, None])[:, :, 0]
                if layer.kind == DENSE and layer.activation == "relu":
                    h = np.maximum(h, 0.0)
            if not np.all(np.isfinite(h)):
                raise NumericError(f"non-finite values in layer {i} ({layer.kind})")
        return h

    def logits(self, records) -> np.ndarray:
        x = _net._as_batch(self.model.spec, records)
        return np.concatenate(
            [self._block_logits(x[i : i + BLOCK]) for i in range(0, len(x), BLOCK)]
        )

    def probs(self, records) -> np.ndarray:
        return np.exp(_net._log_softmax(self.logits(records)))


def qforward(model: QuantModel, record) -> np.ndarray:
    """Class probabilities for one record via the sign-bit path."""
    return QuantExecutor(model).probs([record])[0]


def predict_batch(model: QuantModel, records) -> np.ndarray:
    """Probabilities for many records; chunks may run on worker threads."""
    ex = QuantExecutor(model)
    return chunked_rows(ex.probs, records)
