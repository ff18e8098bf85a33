"""1-D CNN classifier: layer stack definition, forward/backward, training.

The default architecture is seven conv+maxpool feature blocks followed by a
hidden dense layer and a softmax output, operating on a single-channel
3,600-sample input. Everything runs on numpy in float64; training is
deterministic for a fixed seed.

``layer_table`` is the one static walk over a spec: one ``LayerRow`` per
layer with its output (channels, length) and, for a parameterized layer,
its report name, weight shape and parameter count. Validation, parameter
init, the checkpoint and ``ALQQ`` loaders, the weight rebuild and the
memory reports all read it, once per call. ``_forward_batch`` and
``_backward_batch`` are the dynamic walks. ``logits_batch``, the inference
pass of fp networks and of the quantized executor, runs the forward over
``run_blocks``'s pool; the gradient pass runs the same blocks in order.

Full-precision checkpoints use the ``ALQF`` container: the header that
``pack_header`` writes and ``read_header`` checks for both containers
(magic, u16 version, network descriptor), then each parameterized layer's
flattened parameters (weights row-major, then biases) as little-endian f32.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContainerFormatError, NumericError, ShapeError, TrainingError
from .util import require_ints, worker_count

CONV = "conv1d"
POOL = "maxpool1d"
FLATTEN = "flatten"
DENSE = "dense"
SOFTMAX_DENSE = "softmax-dense"

PARAMETERIZED_KINDS = (CONV, DENSE, SOFTMAX_DENSE)

CHECKPOINT_MAGIC = b"ALQF"
CHECKPOINT_VERSION = 1

_KIND_CODES = {CONV: 0, POOL: 1, FLATTEN: 2, DENSE: 3, SOFTMAX_DENSE: 4}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_ACT_CODES = {"none": 0, "relu": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

# records per block: every fp pass (inference, training and the calibration
# gradient) runs in blocks of at most this many, so memory is batch-independent
BLOCK = 8


@dataclass
class LayerSpec:
    kind: str
    kernel: int = 0
    units: int = 0
    stride: int = 1
    padding: int = 0
    activation: str = "none"
    dropout_rate: float = 0.0


def conv(kernel: int, units: int, stride: int = 1, padding: int = 0) -> LayerSpec:
    return LayerSpec(CONV, kernel=kernel, units=units, stride=stride,
                     padding=padding, activation="relu")


def pool(kernel: int, stride: int) -> LayerSpec:
    return LayerSpec(POOL, kernel=kernel, stride=stride)


def flatten() -> LayerSpec:
    return LayerSpec(FLATTEN)


def dense(units: int, dropout_rate: float = 0.0) -> LayerSpec:
    return LayerSpec(DENSE, units=units, activation="relu", dropout_rate=dropout_rate)


def softmax_dense(units: int) -> LayerSpec:
    return LayerSpec(SOFTMAX_DENSE, units=units)


@dataclass
class NetworkSpec:
    layers: list[LayerSpec]
    input_length: int = 3600
    input_channels: int = 1
    class_count: int = 17


def out_length(length: int, kernel: int, stride: int, padding: int) -> int:
    """Output length of a conv/pool window sweep with floor semantics."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ShapeError("kernel and stride must be >= 1, padding >= 0")
    if length + 2 * padding < kernel:
        raise ShapeError(
            f"kernel {kernel} larger than padded input {length + 2 * padding}"
        )
    return (length + 2 * padding - kernel) // stride + 1


@dataclass(frozen=True)
class LayerRow:
    """One layer's static facts: its index, the (channels, length) it
    outputs and, for a parameterized layer, its report name, weight shape
    and parameter count (weights plus one bias per output; 0 without)."""

    index: int
    shape: tuple[int, int]
    name: str | None = None
    weights: tuple[int, ...] | None = None
    count: int = 0

    def unflatten(self, flat) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of flatten_params: this layer's (weights, bias)."""
        if self.weights is None:
            raise ShapeError(f"layer {self.index} has no parameters")
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.count,):
            raise ShapeError(f"layer {self.index}: expected {self.count} values, got {flat.shape}")
        n_w = self.count - self.weights[0]
        return flat[:n_w].reshape(self.weights), flat[n_w:].copy()


_REPORT_NAMES = {CONV: "Conv1D", DENSE: "Dense", SOFTMAX_DENSE: "Softmax"}


def layer_table(spec: NetworkSpec) -> list[LayerRow]:
    """One row per layer; raises ShapeError on a dead stack. This is the
    one walk that derives shapes, report names and parameter counts.

    Flatten folds channels into a single row; dense layers require a prior
    flatten (or a dense predecessor) and produce (1, units). Conv and hidden
    dense layers are numbered in their report names (Conv1D_1, ...) where a
    stack has more than one of them.
    """
    kinds = Counter(layer.kind for layer in spec.layers)
    numbered: Counter = Counter()
    rows = []
    c, length = spec.input_channels, spec.input_length
    flat = False
    for i, layer in enumerate(spec.layers):
        weights = None
        if layer.kind in (CONV, POOL):
            if flat:
                word = "conv" if layer.kind == CONV else "pool"
                raise ShapeError(f"layer {i}: {word} after flatten")
            length = out_length(length, layer.kernel, layer.stride, layer.padding)
            if layer.kind == CONV:
                weights, c = (layer.units, c, layer.kernel), layer.units
        elif layer.kind == FLATTEN:
            length, c, flat = c * length, 1, True
        elif layer.kind in (DENSE, SOFTMAX_DENSE):
            if not flat:
                raise ShapeError(f"layer {i}: dense requires a preceding flatten")
            weights, length = (layer.units, c * length), layer.units
        else:
            raise ShapeError(f"layer {i}: unknown kind {layer.kind!r}")
        if length < 1:
            raise ShapeError(f"layer {i}: output length {length} < 1")
        name = _REPORT_NAMES.get(layer.kind)
        if layer.kind in (CONV, DENSE) and kinds[layer.kind] > 1:
            numbered[layer.kind] += 1
            name += f"_{numbered[layer.kind]}"
        count = math.prod(weights) + layer.units if weights else 0
        rows.append(LayerRow(i, (c, length), name, weights, count))
    return rows


def propagate_shapes(spec: NetworkSpec) -> list[tuple[int, int]]:
    """(channels, length) after every layer; raises ShapeError on a dead stack."""
    return [row.shape for row in layer_table(spec)]


def validate_spec(spec: NetworkSpec) -> list[LayerRow]:
    """The spec's layer table; raises ShapeError for a spec that cannot run."""
    for i, layer in enumerate(spec.layers):
        if layer.kind == POOL and layer.padding:
            raise ShapeError(f"layer {i}: pool padding is not supported")
        if not 0.0 <= layer.dropout_rate < 1.0:  # NaN too: it would not re-save
            raise ShapeError(f"layer {i}: dropout rate {layer.dropout_rate} not in [0, 1)")
    table = layer_table(spec)
    if not spec.layers or spec.layers[-1].kind != SOFTMAX_DENSE:
        raise ShapeError("final layer must be a softmax-dense classifier head")
    if table[-1].shape[1] != spec.class_count:
        raise ShapeError(f"final layer outputs {table[-1].shape[1]} values, "
                         f"expected {spec.class_count}")
    return table


def default_ecgnet_spec() -> NetworkSpec:
    """The default 17-layer stack: 7 conv+pool blocks, flatten, two dense layers."""
    layers = [
        conv(16, 8, stride=2, padding=7), pool(8, 4),
        conv(12, 12, stride=2, padding=5), pool(4, 2),
        conv(9, 32, stride=1, padding=4), pool(5, 2),
        conv(7, 64, stride=1, padding=3), pool(4, 2),
        conv(5, 64, stride=1, padding=2), pool(2, 2),
        conv(3, 64, stride=1, padding=1), pool(2, 2),
        conv(3, 72, stride=1, padding=1), pool(2, 2),
        flatten(),
        dense(64, dropout_rate=0.1),
        softmax_dense(17),
    ]
    spec = NetworkSpec(layers)
    validate_spec(spec)
    return spec


def parameterized_layers(spec: NetworkSpec) -> list[tuple[int, str]]:
    """(layer index, report name) for every layer that carries parameters."""
    return [(row.index, row.name) for row in layer_table(spec) if row.name]


def param_counts(spec: NetworkSpec) -> tuple[list[tuple[str, int]], int]:
    """Per-layer parameter counts (weights + biases) and their total."""
    rows = [(row.name, row.count) for row in layer_table(spec) if row.name]
    return rows, sum(n for _, n in rows)


@dataclass
class Network:
    """A spec plus concrete parameters: per layer (weights, bias) or None."""

    spec: NetworkSpec
    params: list[tuple[np.ndarray, np.ndarray] | None]


def init_params(spec: NetworkSpec, seed: int) -> Network:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)

    def draw(w_shape):
        bound = 1.0 / np.sqrt(math.prod(w_shape[1:]))
        return rng.uniform(-bound, bound, size=w_shape), np.zeros(w_shape[0])

    return Network(spec, [None if row.weights is None else draw(row.weights)
                          for row in layer_table(spec)])


def flatten_params(network: Network, layer_index: int) -> np.ndarray:
    """Row-major weights followed by biases for one parameterized layer."""
    pair = network.params[layer_index]
    if pair is None:
        raise ShapeError(f"layer {layer_index} has no parameters")
    w, b = pair
    return np.concatenate([w.ravel(), b]).astype(np.float64)


# ---------------------------------------------------------------------------
# forward / backward


def _strided_windows(x: np.ndarray, axis: int, width: int, step: int) -> np.ndarray:
    """Read-only view of every ``step``-th length-``width`` window of ``x``
    along ``axis``: that axis indexes the windows, and a new last axis the
    place in each window. It equals ``sliding_window_view(x, width,
    axis)`` sliced by ``step`` on ``axis``, strides included.
    """
    count = (x.shape[axis] - width) // step + 1
    shape = x.shape[:axis] + (count,) + x.shape[axis + 1 :] + (width,)
    stride = x.strides[axis]
    strides = x.strides[:axis] + (stride * step,) + x.strides[axis + 1 :] + (stride,)
    return as_strided(x, shape, strides, writeable=False)


def _windows(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    # x (B, C, L) -> (B, C, T, K) strided view of every window
    if padding:
        xp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * padding,), dtype=x.dtype)
        xp[:, :, padding:-padding] = x
        x = xp
    return _strided_windows(x, 2, kernel, stride)


def _im2col(win: np.ndarray) -> np.ndarray:
    """Contiguous (B, C*K, T) copy of a conv's (B, C, T, K) window view: row
    c*K + k of a record holds tap k of channel c at every output position,
    so the conv is one (O, C*K) @ (C*K, T) product per record."""
    bsz, c, t, k = win.shape
    return np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(bsz, c * k, t)


def _conv_param_grads(dy, win):
    # per-record (O, C*K) products, summed over the records in order
    dw = (dy @ _im2col(win).transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(dy.shape[1], win.shape[1], win.shape[3]), dy.sum(axis=(0, 2))


def _conv_input_grad(dy, x_shape, w, stride, padding):
    o, c, k = w.shape
    bsz, _, length = x_shape
    t = dy.shape[2]
    dcols = (w.reshape(o, c * k).T @ dy).reshape(bsz, c, k, t)
    dxp = np.zeros((bsz, c, length + 2 * padding))
    for j in range(k):
        dxp[:, :, j : j + stride * t : stride] += dcols[:, :, j]
    return dxp[:, :, padding : padding + length] if padding else dxp


def _pool_max(x, kernel, stride, keep_arg=False):
    """Window maxima of (B, C, L) inputs: the elementwise max of ``kernel``
    strided slices, one per window offset.

    With ``keep_arg`` it returns ``(maxima, arg)`` instead, where ``arg``
    holds each window's first-max offset in the smallest unsigned dtype.
    """
    span = stride * ((x.shape[2] - kernel) // stride) + 1
    y = x[:, :, :span:stride].copy()
    arg = np.zeros(y.shape, np.min_scalar_type(kernel - 1)) if keep_arg else None
    for j in range(1, kernel):
        xj = x[:, :, j : j + span : stride]
        if keep_arg:
            # offsets only grow, so a strict new max moves arg up to j
            np.maximum(arg, (xj > y) * arg.dtype.type(j), out=arg)
        np.maximum(y, xj, out=y)
    return (y, arg) if keep_arg else y


def _pool_bwd(dy, arg, x_shape, kernel, stride):
    """Route ``dy`` to each window's first max with one ``np.bincount``.

    Windows are visited last to first, so every input sums its windows'
    contributions in increasing offset order, as a loop over offsets would.
    """
    bsz, c, length = x_shape
    t = dy.shape[2]
    starts = np.arange(bsz * c)[:, None] * length + stride * np.arange(t - 1, -1, -1)
    idx = starts.reshape(bsz, c, t) + arg[:, :, ::-1]
    dx = np.bincount(idx.ravel(), dy[:, :, ::-1].ravel(), minlength=bsz * c * length)
    return dx.reshape(x_shape)


def _log_softmax(z):
    zs = z - z.max(axis=1, keepdims=True)
    return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))


def _forward_batch(spec: NetworkSpec, x: np.ndarray, affine, train_rng=None, caches=None):
    """Run the stack on a (B, C, L) batch and return its logits.

    This is the one walk over the layer stack: ``affine(i, h)`` maps
    parameterized layer i's conv windows (B, C, T, K) to (B, O, T), or its
    dense rows (B, F) to (B, O), and the walk does everything else.
    ``affine`` must return a fresh array that aliases nothing, because ReLU
    is applied to it in place. If ``caches`` is a list, it receives one dict
    per layer holding what the backward pass needs; a ReLU layer keeps only
    its boolean ``h > 0`` mask. Dropout is active only when ``train_rng`` is
    given.
    """
    h = x
    with np.errstate(invalid="ignore", over="ignore"):  # NumericError below, not a warning
        for i, layer in enumerate(spec.layers):
            cache = {"x_shape": h.shape}
            if layer.kind == POOL:
                if caches is None:
                    h = _pool_max(h, layer.kernel, layer.stride)
                else:
                    h, cache["arg"] = _pool_max(h, layer.kernel, layer.stride, keep_arg=True)
            elif layer.kind == FLATTEN:
                # sized explicitly, as -1 cannot be resolved for an empty batch
                h = h.reshape(h.shape[0], int(np.prod(h.shape[1:])))
            elif layer.kind in PARAMETERIZED_KINDS:
                if layer.kind == CONV:
                    h = cache["win"] = _windows(h, layer.kernel, layer.stride, layer.padding)
                else:
                    cache["x"] = h
                h = affine(i, h)
                # the head emits raw logits, whatever activation its descriptor holds
                if layer.kind != SOFTMAX_DENSE and layer.activation == "relu":
                    if caches is not None:
                        cache["relu_mask"] = h > 0
                    np.maximum(h, 0.0, out=h)
                if layer.kind == DENSE and layer.dropout_rate > 0 and train_rng is not None:
                    keep = train_rng.random(h.shape) >= layer.dropout_rate
                    h = h * keep / (1.0 - layer.dropout_rate)
                    cache["drop_keep"] = keep
            if not np.all(np.isfinite(h)):
                raise NumericError(f"non-finite values in layer {i} ({layer.kind})")
            if caches is not None:
                caches.append(cache)
    return h


def _fp_affine(network: Network):
    """The affine map of ``network``'s own parameters, for ``_forward_batch``:
    one GEMM per record on a conv's im2col array, one GEMV per record on a
    dense row. No product spans records, so each record's bytes are the
    same in any batch or block."""
    def affine(i, h):
        w, b = network.params[i]
        if h.ndim == 4:  # conv windows
            y = w.reshape(w.shape[0], -1) @ _im2col(h)
            y += b[:, None]
        else:
            y = (w @ h[:, :, None])[:, :, 0]
            y += b
        return y
    return affine


def _backward_batch(network: Network, caches, probs, labels, count: int):
    """Gradient w.r.t. every parameter tensor of the batch's summed
    cross-entropy divided by ``count`` records.

    The walk stops at the first parameterized layer, whose input gradient
    nothing reads. It pops each layer's cache off ``caches`` once it has
    used it, so a layer's windows and masks are freed as the walk passes
    them, and ``caches`` is empty on return. Every step makes a fresh
    ``dh``, so masks are applied to it in place where that keeps its layout.
    """
    bsz = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(bsz), labels] = 1.0
    dh = (probs - onehot) / count
    layers = network.spec.layers
    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(layers)
    first = min(i for i, l in enumerate(layers) if l.kind in PARAMETERIZED_KINDS)
    for i in range(len(layers) - 1, first - 1, -1):
        layer = layers[i]
        cache = caches.pop()
        if layer.kind in (DENSE, SOFTMAX_DENSE):
            if "drop_keep" in cache:
                dh = dh * cache["drop_keep"] / (1.0 - layer.dropout_rate)
            if "relu_mask" in cache:
                dh *= cache["relu_mask"]
            w, _ = network.params[i]
            grads[i] = (dh.T @ cache["x"], dh.sum(axis=0))
            if i > first:
                dh = dh @ w
        elif layer.kind == FLATTEN:
            dh = dh.reshape(cache["x_shape"])
        elif layer.kind == POOL:
            dh = _pool_bwd(dh, cache["arg"], cache["x_shape"], layer.kernel, layer.stride)
        elif layer.kind == CONV:
            if "relu_mask" in cache:
                # a padded conv's input gradient is a strided slice: masking
                # it into a new array keeps the contiguous layout that the
                # per-record matmuls and the bias sum below round in
                dh = np.multiply(dh, cache["relu_mask"],
                                 out=dh if dh.flags.c_contiguous else None)
            grads[i] = _conv_param_grads(dh, cache["win"])
            if i > first:
                w, _ = network.params[i]
                dh = _conv_input_grad(dh, cache["x_shape"], w, layer.stride, layer.padding)
    caches.clear()
    return grads


def _as_batch(spec: NetworkSpec, records) -> np.ndarray:
    """``records`` as a (B, C, L) batch: an (n, C*L) sample matrix, its rows,
    or a list of equal-length arrays. A C-contiguous float64 matrix's rows
    become a view, not a copy; the forward pass only reads its input."""
    x = np.asarray(records, dtype=np.float64)
    width = spec.input_channels * spec.input_length
    if x.size != len(x) * width:
        raise ShapeError(f"records of shape {x.shape[1:]}, spec expects {width} samples")
    return x.reshape(len(x), spec.input_channels, spec.input_length)


def _blocks(count: int) -> list[slice]:
    """``count`` records in order, ``BLOCK`` at a time; no records, one empty block."""
    return [slice(i, i + BLOCK) for i in range(0, max(count, 1), BLOCK)]


def run_blocks(count: int, fn) -> list:
    """``fn(rows)`` for each of ``_blocks(count)``, in order, on
    ``min(worker_count(), blocks)`` threads (serially at one): numpy releases
    the GIL in the matmuls. A worker holds one block's activations at a time."""
    blocks = _blocks(count)
    workers = min(worker_count(), len(blocks))
    if workers <= 1:
        return list(map(fn, blocks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))


def predict_batch(network: Network, records) -> np.ndarray:
    """Probabilities for many records, (n_records, class_count)."""
    return np.exp(_log_softmax(logits_batch(network, records)))


def logits_batch(network: Network, records) -> np.ndarray:
    """Pre-softmax outputs, run by ``run_blocks``; ``records`` is what
    ``_as_batch`` takes. Every product is per record, so the bytes do not
    depend on the batch, the block size or the thread count."""
    spec, affine = network.spec, _fp_affine(network)
    return np.concatenate(run_blocks(
        len(records), lambda rows: _forward_batch(spec, _as_batch(spec, records[rows]), affine)))


def _cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of (B, classes) logits, and the class probabilities."""
    logp = _log_softmax(logits)
    return float(-logp[np.arange(len(labels)), labels].mean()), np.exp(logp)


def batch_loss(network: Network, records, labels) -> float:
    """Mean cross-entropy of the inference-mode forward pass."""
    return _cross_entropy(logits_batch(network, records), np.asarray(labels))[0]


def _gradients(network: Network, records, labels, train_rng=None, index=None):
    """Mean cross-entropy of ``records`` and the (weight, bias) gradient of
    every layer (None where it has no parameters), from one forward and
    backward pass per block of ``BLOCK`` records, in order on the calling
    thread. With ``index``, the pass runs on ``records[index]`` and
    ``labels[index]``, each block gathering its own rows. Dropout is active
    only when ``train_rng`` is given. Each block's gradient is divided by the
    whole record count and the blocks add up in order, so above ``BLOCK``
    records the bytes depend on it. The loss comes from the concatenated
    logits, so without dropout it equals ``batch_loss``'s bitwise."""
    spec, affine = network.spec, _fp_affine(network)
    labels = np.asarray(labels)
    if index is not None:
        labels = labels[index]
    totals: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(spec.layers)

    def block(rows):
        caches: list[dict] = []
        batch = _as_batch(spec, records[rows if index is None else index[rows]])
        logits = _forward_batch(spec, batch, affine, train_rng=train_rng, caches=caches)
        probs = _cross_entropy(logits, labels[rows])[1]
        for i, g in enumerate(_backward_batch(network, caches, probs, labels[rows], len(labels))):
            totals[i] = g if totals[i] is None else (totals[i][0] + g[0], totals[i][1] + g[1])
        return logits

    logits = np.concatenate([block(rows) for rows in _blocks(len(labels))])
    return _cross_entropy(logits, labels)[0], totals


def loss_gradients(network: Network, records, labels) -> tuple[float, list[np.ndarray | None]]:
    """(mean cross-entropy, flattened gradient per parameterized layer) of
    ``_gradients`` without dropout."""
    loss, grads = _gradients(network, records, labels)
    return loss, [None if g is None else np.concatenate([g[0].ravel(), g[1]]) for g in grads]


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_ints(TrainingError, epochs=self.epochs, batch_size=self.batch_size,
                     seed=self.seed)
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("epochs and batch_size must be >= 1")
        if self.seed < 0:  # default_rng takes no negative seed
            raise TrainingError("seed must be >= 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise TrainingError("learning_rate must be finite and >= 0")


@dataclass
class TrainResult:
    network: Network
    epoch_losses: list[float] = field(default_factory=list)


def train(network: Network, train_set, config: TrainConfig) -> TrainResult:
    """Mini-batch cross-entropy training with Adam; pure function of
    (network, data, seed)."""
    records, labels = train_set.records, train_set.labels()
    if not len(records):
        raise TrainingError("empty training set")
    if labels.max() >= network.spec.class_count:
        raise TrainingError("label exceeds class_count")

    params = [None if p is None else (p[0].copy(), p[1].copy()) for p in network.params]
    net = Network(network.spec, params)
    rng = np.random.default_rng(config.seed)

    # every weight and bias array, with its Adam moments
    arrays = [a for p in params if p is not None for a in p]
    adam_m = [np.zeros_like(a) for a in arrays]
    adam_v = [np.zeros_like(a) for a in arrays]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    n = len(records)
    epoch_losses = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            try:
                loss, grads = _gradients(net, records, labels, rng, index=idx)
            except NumericError as exc:
                raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
            total += loss * len(idx)
            step += 1
            corr1, corr2 = 1 - beta1 ** step, 1 - beta2 ** step
            grad_arrays = (g for gp in grads if gp is not None for g in gp)
            for a, g, m, v in zip(arrays, grad_arrays, adam_m, adam_v):
                m *= beta1; m += (1 - beta1) * g
                v *= beta2; v += (1 - beta2) * g ** 2
                a -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + eps)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"training diverged at epoch {epoch}")
        epoch_losses.append(epoch_loss)
    return TrainResult(net, epoch_losses)


# ---------------------------------------------------------------------------
# checkpoint container


class ByteReader:
    """Sequential struct reader that reports byte offsets in errors."""

    def __init__(self, data: bytes, context: str = ""):
        self.data = data
        self.offset = 0
        self.context = context

    def take(self, fmt: str, what: str):
        values = struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt), what))
        return values if len(values) > 1 else values[0]

    def take_bytes(self, size: int, what: str) -> bytes:
        if self.offset + size > len(self.data):
            prefix = f"{self.context}: " if self.context else ""
            raise ContainerFormatError(f"{prefix}truncated {what}", self.offset)
        out = self.data[self.offset : self.offset + size]
        self.offset += size
        return out

    def at_context(self, context: str) -> "ByteReader":
        self.context = context
        return self

    def finish(self) -> None:
        """Raise for bytes left after the last field."""
        if self.offset != len(self.data):
            raise ContainerFormatError("trailing bytes", self.offset)


def pack_header(magic: bytes, version: int, spec: NetworkSpec) -> bytes:
    """The head both containers share: magic, u16 version and the network
    descriptor (u16 layer count, input length, input channels and class
    count, then 14 bytes per layer)."""
    parts = [magic, struct.pack("<HHHHH", version, len(spec.layers), spec.input_length,
                                spec.input_channels, spec.class_count)]
    parts += [struct.pack("<BHHHHBf", _KIND_CODES[l.kind], l.kernel, l.units, l.stride,
                          l.padding, _ACT_CODES[l.activation], l.dropout_rate)
              for l in spec.layers]
    return b"".join(parts)


def read_header(data: bytes, magic: bytes, version: int):
    """(reader past the header, spec, layer table) of a container that
    ``pack_header`` began. Raises ContainerFormatError for a wrong magic or
    version or a bad layer descriptor, and ShapeError, at the descriptor's
    start, for a spec that ``validate_spec`` rejects."""
    reader = ByteReader(data)
    if reader.take_bytes(len(magic), "magic") != magic:
        raise ContainerFormatError("bad magic", 0)
    found = reader.take("<H", "version")
    if found != version:
        raise ContainerFormatError(f"unsupported version {found}", len(magic))
    descriptor = reader.offset
    n_layers, input_length, input_channels, class_count = reader.take(
        "<HHHH", "network descriptor")
    layers = []
    for i in range(n_layers):
        start = reader.offset
        kind, kernel, units, stride, padding, act, drop = reader.take(
            "<BHHHHBf", f"layer {i} descriptor")
        if kind not in _KIND_NAMES or act not in _ACT_NAMES:
            raise ContainerFormatError(f"layer {i}: bad descriptor", reader.offset)
        if _KIND_NAMES[kind] == POOL and padding:
            raise ContainerFormatError(f"layer {i}: pool padding is not supported", start)
        layers.append(LayerSpec(_KIND_NAMES[kind], kernel, units, stride, padding,
                                _ACT_NAMES[act], float(drop)))
    spec = NetworkSpec(layers, input_length, input_channels, class_count)
    try:
        table = validate_spec(spec)
    except ShapeError as err:
        raise ShapeError(str(err), descriptor) from None
    return reader, spec, table


def save_checkpoint(network: Network, path) -> None:
    parts = [pack_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, network.spec)]
    for row in layer_table(network.spec):
        if row.name:
            parts.append(flatten_params(network, row.index).astype("<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> Network:
    reader, spec, table = read_header(Path(path).read_bytes(), CHECKPOINT_MAGIC,
                                      CHECKPOINT_VERSION)
    params: list[tuple[np.ndarray, np.ndarray] | None] = []
    for row in table:
        if not row.name:
            params.append(None)
            continue
        start = reader.offset
        raw = reader.at_context(row.name).take_bytes(row.count * 4, "parameter block")
        flat = np.frombuffer(raw, dtype="<f4")
        # checked on the f32 values: the f64 cast warns on a signalling NaN
        if not np.all(np.isfinite(flat)):
            raise ContainerFormatError(f"{row.name}: non-finite parameter", start)
        params.append(row.unflatten(flat.astype(np.float64)))
    reader.finish()
    return Network(spec, params)
