"""A second quantized forward, driven directly by sign bits in bit-plane form.

``qinfer.QuantExecutor`` runs the fp affine maps on weights rebuilt from the
groups. This module computes the same logits without ever forming those
weights, so the tests can check the executor against an independent
computation as well as against the fp reference.

A group w = B @ a contributes sum_k a_k (b_k . x) to its layer's outputs:
one add/subtract reduction per retained sign column b_k, scaled by its
coordinate. Groups follow flattened layer order (weights row-major, then
biases), so one group may span several output channels and the bias tail.
The part of a group on one output channel is a segment; with group size n,
a channel's s-th segment lies inside the s-th window of input columns,
``[s*n - left, s*n - left + width)``. ``left`` is 0 and ``width`` n when n
divides the layer's ``fan`` (its inputs per output position); otherwise
``left`` is n and ``width`` 2n, and a layer has at most ceil(fan / n) + 1
windows. From the ``signs`` and ``coords`` arrays of the layer's span of the
model's groups (``quantizer.layer_spans``), cut to the layer's widest group,
``layer_plan`` builds

* ``M``, an int8 {-1, 0, +1} grid of shape (windows, K * outputs, width),
  K the layer's largest bitwidth: row ``k * outputs + o`` of window ``s``
  holds the k-th retained sign column of channel o's s-th segment, and rows
  with no segment behind them are zero;
* ``coords`` (outputs x windows * K), the coordinate a_k of each row;
* ``bias``, each channel's sum of a_k times the sign of its bias position.
  The bias input is the constant 1, so that reduction is done once, when
  the plan is built.

For inputs ``x`` shaped (records, fan, positions), where dense layers have
one position, a layer writes ``x`` once into a zero-padded column buffer,
computes ``z = M @ x_windows`` with a matmul over a strided (records,
windows, width, positions) view of it, and reduces every channel's rows
with a batched GEMV, ``y = coords @ z + bias``. The matmul and the GEMV run
over chunks of records whose float64 ``z`` stays within ``Z_BYTES`` (one
record when a record's ``z`` alone is larger); the chunking changes no
byte of the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from alqecg import net as _net
from alqecg.quantizer import Groups, QuantModel, layer_spans

# bytes of one layer's float64 bit-plane product held at a time
Z_BYTES = 1 << 20


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
    is each channel's reduction of the constant bias input.
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
        M = self.M.astype(np.float64)
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


def layer_plan(layer: Groups, n_out: int, fan: int) -> LayerPlan:
    """Bit-plane plan of a layer's groups, for ``n_out`` outputs of ``fan`` inputs."""
    _, n, bits = layer.signs.shape
    left = 0 if fan % n == 0 else n
    # every flattened position's group and place in it; the partition is
    # standard, so position p is place p % n of group p // n
    g, j = np.divmod(np.arange(layer.sizes.sum()), n)
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


class BitPlaneExecutor:
    """Logits of a quantized model through one bit-plane plan per layer.

    ``plans`` maps a layer index to anything with the ``LayerPlan.apply``
    signature, so a test may swap in another oracle's plans.
    """

    def __init__(self, model: QuantModel):
        self.model = model
        self.plans = {}
        for row, span in layer_spans(model.spec, model.group_size):
            self.plans[row.index] = layer_plan(model.groups.trimmed(span), row.weights[0],
                                               int(np.prod(row.weights[1:])))

    def _affine(self, i: int, h: np.ndarray) -> np.ndarray:
        if h.ndim == 2:  # dense rows
            return self.plans[i].apply(h[:, :, None])[:, :, 0]
        return self.plans[i].apply(h.transpose(0, 1, 3, 2))  # conv windows

    def logits(self, records) -> np.ndarray:
        spec = self.model.spec
        return np.concatenate(_net.run_blocks(len(records), lambda rows: _net._forward_batch(
            spec, _net._as_batch(spec, records[rows]), self._affine)))
