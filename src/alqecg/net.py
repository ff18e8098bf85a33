"""1-D CNN classifier: layer stack definition, forward/backward, training.

The default architecture is seven conv+maxpool feature blocks followed by a
hidden dense layer and a softmax output, operating on a single-channel
3,600-sample input. Everything runs on numpy in float64; training is
deterministic for a fixed seed.

Full-precision checkpoints use the ``ALQF`` container: magic, u16 version,
a network descriptor, then each parameterized layer's flattened parameters
(weights row-major, then biases) as little-endian f32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContainerFormatError, NumericError, ShapeError, TrainingError

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


def propagate_shapes(spec: NetworkSpec) -> list[tuple[int, int]]:
    """(channels, length) after every layer; raises ShapeError on a dead stack.

    Flatten folds channels into a single row; dense layers require a prior
    flatten (or a dense predecessor) and produce (1, units).
    """
    shapes = []
    c, length = spec.input_channels, spec.input_length
    flat = False
    for i, layer in enumerate(spec.layers):
        if layer.kind == CONV:
            if flat:
                raise ShapeError(f"layer {i}: conv after flatten")
            length = out_length(length, layer.kernel, layer.stride, layer.padding)
            c = layer.units
        elif layer.kind == POOL:
            if flat:
                raise ShapeError(f"layer {i}: pool after flatten")
            length = out_length(length, layer.kernel, layer.stride, layer.padding)
        elif layer.kind == FLATTEN:
            length = c * length
            c = 1
            flat = True
        elif layer.kind in (DENSE, SOFTMAX_DENSE):
            if not flat:
                raise ShapeError(f"layer {i}: dense requires a preceding flatten")
            length = layer.units
        else:
            raise ShapeError(f"layer {i}: unknown kind {layer.kind!r}")
        if length < 1:
            raise ShapeError(f"layer {i}: output length {length} < 1")
        shapes.append((c, length))
    return shapes


def validate_spec(spec: NetworkSpec) -> None:
    for i, layer in enumerate(spec.layers):
        if layer.kind == POOL and layer.padding:
            raise ShapeError(f"layer {i}: pool padding is not supported")
        if not 0.0 <= layer.dropout_rate < 1.0:  # NaN too: it would not re-save
            raise ShapeError(f"layer {i}: dropout rate {layer.dropout_rate} not in [0, 1)")
    shapes = propagate_shapes(spec)
    if not spec.layers or spec.layers[-1].kind != SOFTMAX_DENSE:
        raise ShapeError("final layer must be a softmax-dense classifier head")
    if shapes[-1][1] != spec.class_count:
        raise ShapeError(
            f"final layer outputs {shapes[-1][1]} values, expected {spec.class_count}"
        )


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
    names = []
    n_conv = sum(1 for l in spec.layers if l.kind == CONV)
    n_dense = sum(1 for l in spec.layers if l.kind == DENSE)
    ci = di = 0
    for i, layer in enumerate(spec.layers):
        if layer.kind == CONV:
            ci += 1
            names.append((i, f"Conv1D_{ci}" if n_conv > 1 else "Conv1D"))
        elif layer.kind == DENSE:
            di += 1
            names.append((i, f"Dense_{di}" if n_dense > 1 else "Dense"))
        elif layer.kind == SOFTMAX_DENSE:
            names.append((i, "Softmax"))
    return names


def param_shapes(spec: NetworkSpec) -> dict[int, tuple[tuple, tuple]]:
    """Per parameterized layer: (weight shape, bias shape)."""
    inputs = [(spec.input_channels, spec.input_length)] + propagate_shapes(spec)
    shapes = {}
    for i, (layer, (c, length)) in enumerate(zip(spec.layers, inputs)):
        if layer.kind == CONV:
            shapes[i] = ((layer.units, c, layer.kernel), (layer.units,))
        elif layer.kind in (DENSE, SOFTMAX_DENSE):
            shapes[i] = ((layer.units, c * length), (layer.units,))
    return shapes


def param_counts(spec: NetworkSpec) -> tuple[list[tuple[str, int]], int]:
    """Per-layer parameter counts (weights + biases) and their total."""
    shapes = param_shapes(spec)
    rows = []
    for idx, name in parameterized_layers(spec):
        w_shape, b_shape = shapes[idx]
        rows.append((name, int(np.prod(w_shape)) + int(np.prod(b_shape))))
    return rows, sum(n for _, n in rows)


@dataclass
class Network:
    """A spec plus concrete parameters: per layer (weights, bias) or None."""

    spec: NetworkSpec
    params: list[tuple[np.ndarray, np.ndarray] | None]


def init_params(spec: NetworkSpec, seed: int) -> Network:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(spec)
    params: list[tuple[np.ndarray, np.ndarray] | None] = []
    for i, layer in enumerate(spec.layers):
        if i in shapes:
            w_shape, b_shape = shapes[i]
            fan_in = int(np.prod(w_shape[1:]))
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=w_shape)
            b = np.zeros(b_shape)
            params.append((w, b))
        else:
            params.append(None)
    return Network(spec, params)


def flatten_params(network: Network, layer_index: int) -> np.ndarray:
    """Row-major weights followed by biases for one parameterized layer."""
    pair = network.params[layer_index]
    if pair is None:
        raise ShapeError(f"layer {layer_index} has no parameters")
    w, b = pair
    return np.concatenate([w.ravel(), b]).astype(np.float64)


def unflatten_params(
    spec: NetworkSpec, layer_index: int, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of flatten_params for the given layer."""
    shapes = param_shapes(spec)
    if layer_index not in shapes:
        raise ShapeError(f"layer {layer_index} has no parameters")
    w_shape, b_shape = shapes[layer_index]
    n_w, n_b = int(np.prod(w_shape)), int(np.prod(b_shape))
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (n_w + n_b,):
        raise ShapeError(
            f"layer {layer_index}: expected {n_w + n_b} values, got {flat.shape}"
        )
    return flat[:n_w].reshape(w_shape), flat[n_w:].copy()


# ---------------------------------------------------------------------------
# forward / backward


def _windows(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    # x (B, C, L) -> (B, C, T, K) strided view of every window
    if padding:
        xp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * padding,), dtype=x.dtype)
        xp[:, :, padding:-padding] = x
        x = xp
    return sliding_window_view(x, kernel, axis=2)[:, :, ::stride, :]


def _conv_param_grads(dy, win):
    dw = np.einsum("bot,bctk->ock", dy, win, optimize=True)
    return dw, dy.sum(axis=(0, 2))


def _conv_input_grad(dy, x_shape, w, stride, padding):
    dwin = np.einsum("bot,ock->bctk", dy, w, optimize=True)
    k = w.shape[2]
    t = dy.shape[2]
    bsz, c, length = x_shape
    dxp = np.zeros((bsz, c, length + 2 * padding))
    for j in range(k):
        dxp[:, :, j : j + stride * t : stride] += dwin[:, :, :, j]
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
    dense rows (B, F) to (B, O), and the walk does everything else. If
    ``caches`` is a list, it receives one dict per layer holding what the
    backward pass needs. Dropout is active only when ``train_rng`` is given.
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
                h = h.reshape(h.shape[0], -1)
            elif layer.kind in PARAMETERIZED_KINDS:
                if layer.kind == CONV:
                    h = cache["win"] = _windows(h, layer.kernel, layer.stride, layer.padding)
                else:
                    cache["x"] = h
                h = affine(i, h)
                # the head emits raw logits, whatever activation its descriptor holds
                if layer.kind != SOFTMAX_DENSE and layer.activation == "relu":
                    cache["pre_relu"] = h
                    h = np.maximum(h, 0.0)
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
    """The affine map of ``network``'s own parameters, for ``_forward_batch``."""
    def affine(i, h):
        w, b = network.params[i]
        if h.ndim == 4:  # conv windows
            return np.einsum("bctk,ock->bot", h, w, optimize=True) + b[:, None]
        return h @ w.T + b
    return affine


def _backward_batch(network: Network, caches, probs, labels):
    """Gradient of mean cross-entropy w.r.t. every parameter tensor.

    The walk stops at the first parameterized layer, whose input gradient
    nothing reads.
    """
    bsz = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(bsz), labels] = 1.0
    dh = (probs - onehot) / bsz
    layers = network.spec.layers
    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(layers)
    first = min(i for i, l in enumerate(layers) if l.kind in PARAMETERIZED_KINDS)
    for i in range(len(layers) - 1, first - 1, -1):
        layer = layers[i]
        cache = caches[i]
        if layer.kind in (DENSE, SOFTMAX_DENSE):
            if "drop_keep" in cache:
                dh = dh * cache["drop_keep"] / (1.0 - layer.dropout_rate)
            if "pre_relu" in cache:
                dh = dh * (cache["pre_relu"] > 0)
            w, _ = network.params[i]
            grads[i] = (dh.T @ cache["x"], dh.sum(axis=0))
            if i > first:
                dh = dh @ w
        elif layer.kind == FLATTEN:
            dh = dh.reshape(cache["x_shape"])
        elif layer.kind == POOL:
            dh = _pool_bwd(dh, cache["arg"], cache["x_shape"], layer.kernel, layer.stride)
        elif layer.kind == CONV:
            if "pre_relu" in cache:
                dh = dh * (cache["pre_relu"] > 0)
            grads[i] = _conv_param_grads(dh, cache["win"])
            if i > first:
                w, _ = network.params[i]
                dh = _conv_input_grad(dh, cache["x_shape"], w, layer.stride, layer.padding)
    return grads


def _as_batch(spec: NetworkSpec, records) -> np.ndarray:
    rows = []
    for rec in records:
        samples = rec.samples if hasattr(rec, "samples") else np.asarray(rec, dtype=np.float64)
        if samples.size != spec.input_channels * spec.input_length:
            raise ShapeError(
                f"record has {samples.size} samples, spec expects "
                f"{spec.input_channels * spec.input_length}"
            )
        rows.append(samples.reshape(spec.input_channels, spec.input_length))
    return np.stack(rows)


def predict_batch(network: Network, records) -> np.ndarray:
    """Probabilities for many records, (n_records, class_count)."""
    return np.exp(_log_softmax(logits_batch(network, records)))


def logits_batch(network: Network, records) -> np.ndarray:
    """Pre-softmax outputs, used for path-equivalence checks."""
    return _forward_batch(network.spec, _as_batch(network.spec, records), _fp_affine(network))


def _cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of (B, classes) logits, and the class probabilities."""
    logp = _log_softmax(logits)
    return float(-logp[np.arange(len(labels)), labels].mean()), np.exp(logp)


def _loss_step(network: Network, records, labels, train_rng=None):
    """Mean cross-entropy of one forward pass over ``records`` and the
    (weight, bias) gradient of every layer (None where it has no parameters).

    The input batch is built as a temporary, so the backward pass runs
    without it.
    """
    caches: list[dict] = []
    logits = _forward_batch(network.spec, _as_batch(network.spec, records),
                            _fp_affine(network), train_rng=train_rng, caches=caches)
    loss, probs = _cross_entropy(logits, labels)
    return loss, _backward_batch(network, caches, probs, labels)


def batch_loss(network: Network, records, labels) -> float:
    """Mean cross-entropy of the inference-mode forward pass."""
    return _cross_entropy(logits_batch(network, records), np.asarray(labels))[0]


def loss_gradients(network: Network, records, labels) -> tuple[float, list[np.ndarray | None]]:
    """(mean cross-entropy, flattened gradient per parameterized layer), no
    dropout, from one forward pass; the loss equals ``batch_loss``'s bitwise."""
    labels = np.asarray(labels)
    loss, grads = _loss_step(network, records, labels)
    return loss, [None if g is None else np.concatenate([g[0].ravel(), g[1]]) for g in grads]


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise TrainingError("learning_rate must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainResult:
    network: Network
    epoch_losses: list[float] = field(default_factory=list)


def train(network: Network, train_set, config: TrainConfig) -> TrainResult:
    """Mini-batch cross-entropy training; pure function of (network, data, seed)."""
    records = train_set.records
    if not records:
        raise TrainingError("empty training set")
    labels = np.array([r.label for r in records])
    if labels.max() >= network.spec.class_count:
        raise TrainingError("label exceeds class_count")

    params = [None if p is None else (p[0].copy(), p[1].copy()) for p in network.params]
    net = Network(network.spec, params)
    rng = np.random.default_rng(config.seed)

    adam_m = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
    adam_v = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
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
                loss, grads = _loss_step(net, [records[j] for j in idx], labels[idx], rng)
            except NumericError as exc:
                raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
            total += loss * len(idx)
            step += 1
            for li, g in enumerate(grads):
                if g is None:
                    continue
                w, b = net.params[li]
                if config.optimizer == "sgd":
                    w -= config.learning_rate * g[0]
                    b -= config.learning_rate * g[1]
                else:
                    mw, mb = adam_m[li]
                    vw, vb = adam_v[li]
                    mw *= beta1; mw += (1 - beta1) * g[0]
                    mb *= beta1; mb += (1 - beta1) * g[1]
                    vw *= beta2; vw += (1 - beta2) * g[0] ** 2
                    vb *= beta2; vb += (1 - beta2) * g[1] ** 2
                    corr1 = 1 - beta1 ** step
                    corr2 = 1 - beta2 ** step
                    w -= config.learning_rate * (mw / corr1) / (np.sqrt(vw / corr2) + eps)
                    b -= config.learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
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


def pack_spec(spec: NetworkSpec) -> bytes:
    parts = [
        struct.pack(
            "<HHHH",
            len(spec.layers),
            spec.input_length,
            spec.input_channels,
            spec.class_count,
        )
    ]
    for layer in spec.layers:
        parts.append(
            struct.pack(
                "<BHHHHBf",
                _KIND_CODES[layer.kind],
                layer.kernel,
                layer.units,
                layer.stride,
                layer.padding,
                _ACT_CODES[layer.activation],
                layer.dropout_rate,
            )
        )
    return b"".join(parts)


def unpack_spec(reader: ByteReader) -> NetworkSpec:
    """The network descriptor at the reader; raises ShapeError, at the
    descriptor's start, for a spec that ``validate_spec`` rejects."""
    descriptor = reader.offset
    n_layers, input_length, input_channels, class_count = reader.take(
        "<HHHH", "network descriptor"
    )
    layers = []
    for i in range(n_layers):
        start = reader.offset
        kind, kernel, units, stride, padding, act, drop = reader.take(
            "<BHHHHBf", f"layer {i} descriptor"
        )
        if kind not in _KIND_NAMES or act not in _ACT_NAMES:
            raise ContainerFormatError(f"layer {i}: bad descriptor", reader.offset)
        if _KIND_NAMES[kind] == POOL and padding:
            raise ContainerFormatError(f"layer {i}: pool padding is not supported", start)
        layers.append(
            LayerSpec(_KIND_NAMES[kind], kernel, units, stride, padding,
                      _ACT_NAMES[act], float(drop))
        )
    spec = NetworkSpec(layers, input_length, input_channels, class_count)
    try:
        validate_spec(spec)
    except ShapeError as err:
        raise ShapeError(str(err), descriptor) from None
    return spec


def save_checkpoint(network: Network, path) -> None:
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    parts.append(pack_spec(network.spec))
    for idx, _name in parameterized_layers(network.spec):
        parts.append(flatten_params(network, idx).astype("<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> Network:
    data = Path(path).read_bytes()
    reader = ByteReader(data)
    magic = reader.take_bytes(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise ContainerFormatError("bad magic", 0)
    version = reader.take("<H", "version")
    if version != CHECKPOINT_VERSION:
        raise ContainerFormatError(f"unsupported version {version}", 4)
    spec = unpack_spec(reader)
    shapes = param_shapes(spec)
    params: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(spec.layers)
    for idx, name in parameterized_layers(spec):
        w_shape, b_shape = shapes[idx]
        count = int(np.prod(w_shape)) + int(np.prod(b_shape))
        start = reader.offset
        raw = reader.at_context(name).take_bytes(count * 4, "parameter block")
        flat = np.frombuffer(raw, dtype="<f4")
        # checked on the f32 values: the f64 cast warns on a signalling NaN
        if not np.all(np.isfinite(flat)):
            raise ContainerFormatError(f"{name}: non-finite parameter", start)
        params[idx] = unflatten_params(spec, idx, flat.astype(np.float64))
    if reader.offset != len(data):
        raise ContainerFormatError("trailing bytes", reader.offset)
    return Network(spec, params)
