"""Quantized inference: the fp forward on weights rebuilt from the groups.

A quantized model is held as its layers' sign, coordinate and bitwidth
arrays. Each ``QuantExecutor.logits`` call first rebuilds the float64
parameters once with ``quantizer.dequantized_network`` (every group's
w = B @ a, in flattened layer order), then runs the records through
``net._forward_batch``, the network's one layer walk, with the same affine
map as the fp passes: a conv layer is one ``W.reshape(O, C*K) @ cols`` GEMM
per record on its im2col array, and a dense layer one GEMV per record. The
rebuilt parameters live for that call only; nothing derived from a model
outlives it.

The executor itself only rebuilds the weights and picks the block mapper:
it hands the rebuilt network and its thread pool's ``map`` to
``net.logits_batch``, so records run in the same fixed blocks of
``net.BLOCK`` as the fp passes. Each record's arithmetic is a product whose
shapes do not depend on its batch, so logits are bitwise identical at every
batch and block size, and equal to the fp logits of the rebuilt network.
Each block's inputs are stacked when the block runs, so the working memory
is the rebuilt parameters plus one block's activations, however many
records there are. The blocks are also the unit of parallel work: with
``ALQ_THREADS`` above one they run on a thread pool, which cannot change a
byte of the output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import net as _net
from .net import Network
from .quantizer import QuantModel, dequantized_network
from .util import worker_count


def dequantize(model: QuantModel) -> Network:
    """Reconstruct the full-precision network from group decompositions."""
    return dequantized_network(model.spec, model.layers)


class QuantExecutor:
    """Runs one quantized model on weights rebuilt once per ``logits`` call."""

    def __init__(self, model: QuantModel):
        self.model = model

    def logits(self, records) -> np.ndarray:
        # weights that overflow become inf here and raise NumericError, naming
        # their layer, in the walk
        with np.errstate(over="ignore", invalid="ignore"):
            network = dequantize(self.model)
        workers = min(worker_count(), -(-len(records) // _net.BLOCK))
        if workers <= 1:
            return _net.logits_batch(network, records)
        # numpy releases the GIL in the matmuls, so the blocks overlap
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _net.logits_batch(network, records, pool.map)

    def probs(self, records) -> np.ndarray:
        return np.exp(_net._log_softmax(self.logits(records)))


def predict_batch(model: QuantModel, records) -> np.ndarray:
    """Probabilities for many records, (n_records, class_count)."""
    return QuantExecutor(model).probs(records)
