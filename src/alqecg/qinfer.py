"""Quantized inference: the fp forward on weights rebuilt from the groups.

A quantized model is held as one set of sign, coordinate, bitwidth and size
arrays for all its layers' groups. Each ``QuantExecutor.logits`` call first
rebuilds the float64 parameters once with ``quantizer.dequantized_network``
(every group's w = B @ a, a layer's span of groups at a time), then runs the
records through ``net.logits_batch``, the inference pass fp networks share:
the network's one layer walk with the same affine map as the fp passes,
where a conv layer is one ``W.reshape(O, C*K) @ cols`` GEMM per record on
its im2col array and a dense layer one GEMV per record. The rebuilt
parameters live for that call only; nothing derived from a model outlives it.

Records run in the fixed blocks of ``net.BLOCK`` that ``net.run_blocks``
hands out, on its thread pool when ``ALQ_THREADS`` allows more than one
worker. Each record's arithmetic is a product whose shapes do not depend on
its batch, so logits are bitwise identical at every batch size, block size
and thread count, and equal to the fp logits of the rebuilt network. Each
block's inputs are stacked when the block runs, so the working memory is
the rebuilt parameters plus one block's activations per worker, however
many records there are.
"""

from __future__ import annotations

import numpy as np

from . import net as _net, quantizer


def dequantize(model: quantizer.QuantModel) -> _net.Network:
    """Reconstruct the full-precision network from group decompositions."""
    return quantizer.dequantized_network(model)


class QuantExecutor:
    """Runs one quantized model on weights rebuilt once per ``logits`` call."""

    def __init__(self, model: quantizer.QuantModel):
        self.model = model

    def logits(self, records) -> np.ndarray:
        # weights that overflow become inf here and raise NumericError, naming
        # their layer, in the walk
        with np.errstate(over="ignore", invalid="ignore"):
            network = dequantize(self.model)
        return _net.logits_batch(network, records)

    def probs(self, records) -> np.ndarray:
        return np.exp(_net._log_softmax(self.logits(records)))


def predict_batch(model: quantizer.QuantModel, records) -> np.ndarray:
    """Probabilities for many records, (n_records, class_count)."""
    return QuantExecutor(model).probs(records)
