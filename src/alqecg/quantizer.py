"""Adaptive multi-bit binary weight quantization.

A layer's P flattened parameters are cut into G = ceil(P / n) groups of
``n = group_size`` values; group g starts at g * n and has size
min(n, P - g * n), so only the last group may be short. A group w is
approximated as B @ a: B a {-1,+1} sign matrix (one column per retained bit),
a a positive, descending coordinate vector; zero columns reconstruct zeros.
``QuantLayer`` holds a layer's groups as three arrays:

* ``signs`` (G, n, W) int8: group g's column k is ``signs[g, :, k]``, +-1 in
  its first ``bits[g]`` columns and first size rows, 0 elsewhere;
* ``coords`` (G, W) float64: the coordinates, zero past ``bits[g]``;
* ``bits`` (G,): every group's bitwidth, with W = max(bits).

The pipeline is:

1. greedy residual binarization of every group up to a per-layer bit cap,
2. global pruning of the least significant coordinates, scored either by
   magnitude or by an estimated loss impact on a calibration batch,
3. alternating refinement: exact per-position sign assignment with fixed
   coordinates, then least-squares coordinates with fixed signs, on every
   layer's groups as one set.

``alq_runs`` runs step 1 and the scoring once and shares them across all
pruning targets; ``alq_pipeline`` is its one-target case.

Each stage runs all groups of one size and bitwidth as one batch, with the
same arithmetic per group as a loop over groups. Every operation is a pure
function of its inputs, so a fixed seed and calibration batch reproduce the
quantized model bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import numbers
from dataclasses import dataclass, field, make_dataclass, replace

import numpy as np

from . import net as _net
from .data import Dataset
from .errors import ConfigError
from .net import Network, NetworkSpec
from .util import require_ints

log = logging.getLogger(__name__)

COORD_EPS = 1e-12
ENUM_BITWIDTH_LIMIT = 16
GRAM_COND_LIMIT = 1e12


def _reconstruct(signs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """(groups, size) values sum_k a_k * b_k of (groups, size, k) signs."""
    # fixed left-to-right column accumulation so equal sign rows
    # reconstruct bitwise identically regardless of group shape
    out = np.zeros(signs.shape[:2])
    for k in range(signs.shape[2]):
        out += coords[:, k, None] * signs[:, :, k]
    return out


@dataclass(eq=False)
class QuantLayer:
    """One layer's groups as arrays (see above), trimmed to W = max(bits) columns.

    The arrays are read-only views and layers compare and hash by identity;
    stages that change a layer return a new one.
    """

    signs: np.ndarray
    coords: np.ndarray
    bits: np.ndarray
    group_size: int
    param_count: int
    layer_index: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int64)[:]
        width = int(self.bits.max(initial=0))
        self.signs = np.asarray(self.signs, dtype=np.int8)[:, :, :width]
        self.coords = np.asarray(self.coords, dtype=np.float64)[:, :width]
        # fresh views: the caller's arrays stay writeable
        for a in (self.signs, self.coords, self.bits):
            a.flags.writeable = False

    @property
    def sizes(self) -> np.ndarray:
        return group_sizes(self.param_count, self.group_size)

    def reconstruct(self) -> np.ndarray:
        """The layer's flattened values."""
        return _reconstruct(self.signs, self.coords).reshape(-1)[: self.param_count]


# groups of any layers for the refinement steps: signs, coords and bits laid
# out as in QuantLayer, plus every group's size
GroupSet = make_dataclass("GroupSet", ["signs", "coords", "bits", "sizes"])


@dataclass
class ModelMeta:
    seed: int = 0
    config_digest: str = "0" * 64


@dataclass
class QuantModel:
    """Per-layer quantized groups plus the network spec they came from."""

    spec: NetworkSpec
    layers: list[QuantLayer]
    group_size: int
    meta: ModelMeta = field(default_factory=ModelMeta)


def layer_i_max(i_max: int | dict, layer_name: str) -> int:
    """One layer's bit cap: ``i_max`` itself, or the map's entry for the
    layer, else its "default" entry (2 without one)."""
    if isinstance(i_max, dict):
        return int(i_max.get(layer_name, i_max.get("default", 2)))
    return int(i_max)


@dataclass
class AlqConfig:
    """Quantization pipeline parameters.

    ``i_max`` is either one cap for every layer or a {layer name: cap} map
    (key "default" supplies the fallback). Exactly one pruning target may be
    set: ``prune_rate`` removes that fraction of all retained coordinates,
    ``target_avg_bitwidth`` prunes until the network-wide weight-weighted
    average bitwidth reaches the target.
    """

    group_size: int = 16
    i_max: int | dict = 2
    prune_rate: float | None = None
    target_avg_bitwidth: float | None = None
    scorer: str = "loss_aware"
    refine_iters: int = 3
    calib_batch: int = 64
    seed: int = 0
    curvature_weight: float = 1.0

    def __post_init__(self):
        caps = self.i_max.values() if isinstance(self.i_max, dict) else [self.i_max]
        require_ints(ConfigError, group_size=self.group_size, refine_iters=self.refine_iters,
                     calib_batch=self.calib_batch, seed=self.seed)
        for cap in caps:
            require_ints(ConfigError, i_max=cap)
        # a JSON config may give a string or a bool here
        for name, value in [("prune.rate", self.prune_rate),
                            ("prune.target_avg_bitwidth", self.target_avg_bitwidth),
                            ("curvature_weight", self.curvature_weight)]:
            if value is None and name != "curvature_weight":
                continue  # no pruning target of this kind
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if not all(1 <= cap <= 8 for cap in caps):
            raise ConfigError("i_max must be in 1..8")
        if self.prune_rate is not None and self.target_avg_bitwidth is not None:
            raise ConfigError("set prune.rate or prune.target_avg_bitwidth, not both")
        if self.prune_rate is not None and not 0.0 <= self.prune_rate < 1.0:
            raise ConfigError("prune.rate must be in [0,1)")
        target = self.target_avg_bitwidth
        if target is not None and not (np.isfinite(target) and target >= 0):
            raise ConfigError("prune.target_avg_bitwidth must be finite and >= 0")
        if self.scorer not in ("magnitude", "loss_aware"):
            raise ConfigError(f"unknown scorer {self.scorer!r}")
        if self.refine_iters < 0:
            raise ConfigError("refine_iters must be >= 0")
        if self.calib_batch < 1:
            raise ConfigError("calib_batch must be >= 1")
        if not 0 <= self.seed < 2**64:  # the container stores it as a u64
            raise ConfigError("seed must be in 0..2**64-1")
        if not np.isfinite(self.curvature_weight):
            raise ConfigError("curvature_weight must be finite")

    @property
    def prunes(self) -> bool:
        """Whether the pruning target removes anything."""
        return self.target_avg_bitwidth is not None or bool(self.prune_rate)

    def to_dict(self) -> dict:
        prune: dict = {}
        if self.prune_rate is not None:
            prune["rate"] = self.prune_rate
        if self.target_avg_bitwidth is not None:
            prune["target_avg_bitwidth"] = self.target_avg_bitwidth
        return {
            "group_size": self.group_size,
            "i_max": self.i_max,
            "prune": prune,
            "scorer": self.scorer,
            "refine_iters": self.refine_iters,
            "calib_batch": self.calib_batch,
            "seed": self.seed,
            "curvature_weight": self.curvature_weight,
        }

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    @classmethod
    def from_dict(cls, raw: dict) -> "AlqConfig":
        known = set(cls().to_dict())
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        prune = raw.get("prune", {}) or {}
        if not isinstance(prune, dict):
            raise ConfigError("prune must be an object")
        bad = set(prune) - {"rate", "target_avg_bitwidth"}
        if bad:
            raise ConfigError(f"unknown prune keys: {sorted(bad)}")
        kwargs = {k: raw[k] for k in known - {"prune"} if k in raw}
        return cls(
            prune_rate=prune.get("rate"),
            target_avg_bitwidth=prune.get("target_avg_bitwidth"),
            **kwargs,
        )

    @classmethod
    def from_json_file(cls, path) -> "AlqConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        return cls.from_dict(raw)


# ---------------------------------------------------------------------------
# layer-level operations


def group_sizes(count: int, n: int) -> np.ndarray:
    """Sizes of the ceil(count / n) groups of ``count`` values; the last may be short."""
    return np.minimum(n, count - n * np.arange(-(-count // n)))


def partition_groups(flat: np.ndarray, n: int) -> np.ndarray:
    """(ceil(len/n), n) groups of a flattened vector; the short tail is zero-padded."""
    flat = np.asarray(flat, dtype=np.float64)
    if n < 1:
        raise ConfigError("group size must be >= 1")
    if flat.size == 0:
        raise ConfigError("cannot partition an empty vector")
    return np.pad(flat, (0, -flat.size % n)).reshape(-1, n)


def _batches(sizes: np.ndarray, bits: np.ndarray):
    """(group indices, size, bitwidth) for each set of equal size and bitwidth."""
    for m in np.unique(sizes):
        for b in np.unique(bits[sizes == m]):
            yield np.flatnonzero((sizes == m) & (bits == b)), int(m), int(b)


def row_keys(group: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One void key per (group >= 0, uint8 row): the group's big-endian int64
    bytes, then the row, so keys sort like the (group, row) rows do."""
    table = np.concatenate([group.astype(">i8")[:, None].view(np.uint8), rows], axis=1)
    return table.view(f"V{table.shape[1]}")[:, 0]


def canonicalize(signs: np.ndarray, coords: np.ndarray):
    """Canonical decompositions of a batch of groups without changing B @ a.

    ``signs`` is (groups, size, k) and ``coords`` (groups, k). Per group,
    negative coordinates flip their sign column, duplicate columns merge by
    summing their coordinates left to right, coordinates at or below
    COORD_EPS are dropped, and the result is sorted by descending coordinate
    (column bytes break exact ties). Returns (signs, coords, bits) zero-padded
    to the input's k columns.
    Duplicates are found with one ``row_keys`` key per column.
    """
    signs = np.asarray(signs, dtype=np.int8)
    coords = np.asarray(coords, dtype=np.float64)
    n_groups = len(signs)
    neg = coords < 0
    signs = np.where(neg[:, None, :], -signs, signs)
    coords = np.where(neg, -coords, coords)
    group, col = np.nonzero(coords > COORD_EPS)
    # sorted unique keys order each group's distinct columns by their bytes
    # (+1 before -1)
    minus = signs[group, :, col] < 0
    _, first, ids = np.unique(row_keys(group, np.packbits(minus, axis=1)),
                              return_index=True, return_inverse=True)
    merged = np.zeros(len(first))
    np.add.at(merged, ids, coords[group, col])
    kept = np.flatnonzero(merged > COORD_EPS)
    kept = kept[np.lexsort((kept, -merged[kept], group[first[kept]]))]
    out_group = group[first[kept]]
    bits = np.bincount(out_group, minlength=n_groups)
    pos = np.arange(kept.size) - (np.cumsum(bits) - bits)[out_group]
    out_signs = np.zeros_like(signs)
    out_coords = np.zeros_like(coords)
    out_signs[out_group, :, pos] = 1 - 2 * minus[first[kept]]
    out_coords[out_group, pos] = merged[kept]
    return out_signs, out_coords, bits


def init_decompose(flat: np.ndarray, group_size: int, i_max: int,
                   layer_index: int = 0) -> QuantLayer:
    """Greedy residual binarization: repeatedly peel off mean(|r|) * sign(r).

    A group stops once its residual scale drops below the coordinate
    epsilon; an all-zero group yields an empty decomposition.
    """
    if i_max < 1:
        raise ConfigError("i_max must be >= 1")
    w = partition_groups(flat, group_size)
    sizes = group_sizes(np.size(flat), group_size)
    signs = np.zeros((*w.shape, i_max), dtype=np.int8)
    coords = np.zeros((len(w), i_max))
    bits = np.zeros(len(w), dtype=np.int64)
    for idx, m, _ in _batches(sizes, bits):
        r = w[idx, :m]
        cols = np.zeros((len(idx), m, i_max), dtype=np.int8)
        alphas = np.zeros((len(idx), i_max))
        live = np.ones(len(idx), dtype=bool)
        for k in range(i_max):
            alpha = np.abs(r).mean(axis=1)
            live &= alpha > COORD_EPS
            beta = np.where(r >= 0, 1, -1).astype(np.int8)
            cols[:, :, k] = beta
            alphas[:, k] = np.where(live, alpha, 0.0)
            r = np.where(live[:, None], r - alpha[:, None] * beta, r)
        signs[idx, :m], coords[idx], bits[idx] = canonicalize(cols, alphas)
    return QuantLayer(signs, coords, bits, group_size, np.size(flat), layer_index)


def _nearest_levels(w: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Signs of the level nearest every weight, for (groups, size) weights.

    A group's levels are the 2^k signed sums of its coordinates, accumulated
    column by column like reconstruction, so a selected row reconstructs to
    the level it was scored at. The levels are ranked by (|level|, positive
    first) and each weight takes the first nearest one in that ranking.
    """
    table = np.array(list(itertools.product((1, -1), repeat=coords.shape[1])),
                     dtype=np.int8)
    levels = np.zeros((len(coords), len(table)))
    for k in range(coords.shape[1]):
        levels += coords[:, k, None] * table[:, k]
    rank = np.lexsort((levels < 0, np.abs(levels)))
    levels = np.take_along_axis(levels, rank, axis=1)
    best = np.zeros(w.shape, dtype=np.intp)
    best_d = np.abs(w - levels[:, :1])
    for j in range(1, len(table)):
        d = np.abs(w - levels[:, j, None])
        better = d < best_d
        best[better] = j
        best_d = np.where(better, d, best_d)
    return table[np.take_along_axis(rank, best, axis=1)]


def optimize_bases(w: np.ndarray, groups: GroupSet) -> GroupSet:
    """Exact per-position sign assignment for fixed coordinates, on
    (groups, size) weight rows ``w`` and their GroupSet.

    Every weight picks the reachable level (one of the 2^bitwidth signed sums
    of its group's coordinates) nearest to it; ties go to the
    smaller-magnitude level, then to the positive one. Never increases the
    reconstruction error.
    """
    signs = groups.signs.copy()
    for idx, m, b in _batches(groups.sizes, groups.bits):
        if b > ENUM_BITWIDTH_LIMIT:
            raise ConfigError(f"bitwidth {b} exceeds enumeration limit {ENUM_BITWIDTH_LIMIT}")
        if b:
            signs[idx, :m, :b] = _nearest_levels(w[idx, :m], groups.coords[idx, :b])
    return replace(groups, signs=signs)


def _recon_error(w: np.ndarray, signs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Per-group ||w - B @ a||, as sqrt(r . r) like np.linalg.norm of a vector."""
    r = w - _reconstruct(signs, coords)
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def optimize_coords(w: np.ndarray, groups: GroupSet) -> GroupSet:
    """Least-squares coordinates for fixed sign bases, then re-canonicalize,
    on (groups, size) weight rows ``w`` and their GroupSet.

    Solves the normal equations, falling back to the pseudo-inverse
    (minimum-norm solution) for groups whose Gram matrix is ill conditioned.
    A nonsingular Gram of b sign columns of length m is an integer matrix with
    |det| >= 1 and cond <= (b m)^b, so where that bound is below the limit,
    |det| > 0.5 decides exactly as cond would. A group whose reconstruction
    error floating-point canonicalization would bump keeps its previous
    decomposition, so the error never increases.
    """
    signs, coords, bits = groups.signs.copy(), groups.coords.copy(), groups.bits.copy()
    for idx, m, b in _batches(groups.sizes, groups.bits):
        if b == 0:
            continue
        wb, old_signs, old_coords = w[idx, :m], groups.signs[idx, :m, :b], groups.coords[idx, :b]
        basis = old_signs.astype(np.float64)
        basis_t = basis.transpose(0, 2, 1)
        gram = basis_t @ basis
        rhs = basis_t @ wb[:, :, None]
        if (b * m) ** b < GRAM_COND_LIMIT:
            solvable = np.abs(np.linalg.det(gram)) > 0.5
        else:
            cond = np.linalg.cond(gram)
            solvable = np.isfinite(cond) & (cond < GRAM_COND_LIMIT)
        new = np.zeros((len(idx), b, 1))
        new[solvable] = np.linalg.solve(gram[solvable], rhs[solvable])
        new[~solvable] = np.linalg.pinv(basis[~solvable]) @ wb[~solvable][:, :, None]
        cand_signs, cand_coords, cand_bits = canonicalize(old_signs, new[:, :, 0])
        worse = (_recon_error(wb, cand_signs, cand_coords)
                 > _recon_error(wb, old_signs, old_coords))
        signs[idx, :m, :b] = np.where(worse[:, None, None], old_signs, cand_signs)
        coords[idx, :b] = np.where(worse[:, None], old_coords, cand_coords)
        bits[idx] = np.where(worse, b, cand_bits)
    return replace(groups, signs=signs, coords=coords, bits=bits)


def model_avg_bitwidth(layers: list[QuantLayer]) -> float:
    """Network-wide weight-weighted average bitwidth."""
    bits = sum(int(ql.sizes @ ql.bits) for ql in layers)
    params = sum(ql.param_count for ql in layers)
    return bits / params


def total_coords(layers: list[QuantLayer]) -> int:
    return sum(int(ql.bits.sum()) for ql in layers)


# ---------------------------------------------------------------------------
# scoring and pruning


def dequantized_network(spec: NetworkSpec, layers: list[QuantLayer]) -> Network:
    """Rebuild a full-precision Network from group reconstructions."""
    table = _net.layer_table(spec)
    params: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(table)
    expected = {row.index: row for row in table if row.name}
    for ql in layers:
        flat = ql.reconstruct()
        row = expected.get(ql.layer_index)
        if row is None or flat.size != row.count:
            raise ConfigError(
                f"layer {ql.layer_index}: reconstructed {flat.size} values, "
                f"spec expects {row and row.count}"
            )
        params[ql.layer_index] = row.unflatten(flat)
    return Network(spec, params)


def _retained(ql: QuantLayer) -> np.ndarray:
    """(G, W) mask of the coordinates each group keeps."""
    return np.arange(ql.coords.shape[1]) < ql.bits[:, None]


def score_coordinates(
    qlayers: list[QuantLayer],
    network: Network,
    calib,
    mode: str,
    curvature_weight: float = 1.0,
) -> tuple[list[np.ndarray], float | None]:
    """Significance score for every retained coordinate (lower = prune first).

    Returns one array per layer, shaped like its ``coords``, NaN past each
    group's bitwidth, and the mean cross-entropy of the calibration forward
    pass that the loss-aware gradient came from (None for magnitude). That
    loss equals ``calib_loss`` of the layers on ``calib`` bit for bit.

    magnitude: a * sqrt(group size), the norm of the removed contribution.
    loss_aware: |g . (a * column)| + curvature_weight/2 * a^2 * group size,
    where g is the mean cross-entropy gradient over the calibration records,
    taken at the dequantized weights. Ties later break by magnitude, then by
    (layer, group, coordinate) position.
    """
    if mode not in ("magnitude", "loss_aware"):
        raise ConfigError(f"unknown scorer {mode!r}")
    grads: dict[int, np.ndarray] = {}
    loss: float | None = None
    if mode == "loss_aware":
        if not calib:
            raise ConfigError("loss_aware scoring requires a calibration set")
        deq = dequantized_network(network.spec, qlayers)
        loss, flat_grads = _net.loss_gradients(deq, calib.records, calib.labels())
        grads = {i: g for i, g in enumerate(flat_grads) if g is not None}

    scores = []
    for ql in qlayers:
        a = ql.coords
        sizes = ql.sizes[:, None]
        if mode == "magnitude":
            s = a * np.sqrt(sizes)
        else:
            g = partition_groups(grads[ql.layer_index], ql.group_size)
            dots = np.zeros_like(a)
            for idx, m, b in _batches(ql.sizes, ql.bits):
                # one unit-stride dot per (group, column), as g_slice @ col does
                cols = np.ascontiguousarray(ql.signs[idx, :m, :b].transpose(0, 2, 1), float)
                g_rows = np.repeat(g[idx, :m], b, axis=0)[:, :, None]
                dots[idx, :b] = (cols.reshape(-1, 1, m) @ g_rows).reshape(len(idx), b)
            s = a * np.abs(dots) + 0.5 * curvature_weight * a * a * sizes
        scores.append(np.where(_retained(ql), s, np.nan))
    return scores, loss


def prune_coordinates(
    qlayers: list[QuantLayer],
    scores: list[np.ndarray],
    rate: float | None = None,
    target_avg_bitwidth: float | None = None,
) -> list[QuantLayer]:
    """Remove the lowest-scored coordinates globally until the target is met.

    Coordinates are removed in order of (score, magnitude, layer, group,
    coordinate). ``rate`` removes that fraction of all retained coordinates
    (1.0 empties the model); ``target_avg_bitwidth`` stops once the network
    weight-weighted average bitwidth is at or below the target. Already-met
    targets are a logged no-op. Survivors keep their order in each group.
    """
    if (rate is None) == (target_avg_bitwidth is None):
        raise ConfigError("specify exactly one of rate / target_avg_bitwidth")
    if len(scores) != len(qlayers):
        raise ConfigError(f"{len(scores)} score arrays for {len(qlayers)} layers")
    keys = []
    for li, (ql, s) in enumerate(zip(qlayers, scores)):
        gi, ci = np.nonzero(_retained(ql))
        if np.shape(s) != ql.coords.shape or np.isnan(s[gi, ci]).any():
            raise ConfigError(f"layer {li}: scores missing for retained coordinates")
        size = ql.sizes[gi]
        keys.append((s[gi, ci], ql.coords[gi, ci] * np.sqrt(size),
                     np.full(gi.size, li), gi, ci, size))
    score, magnitude, layer, group, coord, size = map(np.concatenate, zip(*keys))
    order = np.lexsort((coord, group, layer, magnitude, score))

    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigError("prune rate must be in [0,1]")
        n_remove = int(np.floor(rate * order.size + 0.5))
    else:
        params = sum(ql.param_count for ql in qlayers)
        # sign bits left after removing the first k coordinates, k = 0..all
        left = sum(int(ql.sizes @ ql.bits) for ql in qlayers) - np.cumsum(
            np.concatenate([[0], size[order]]))
        met = left / params <= target_avg_bitwidth
        n_remove = int(met.argmax()) if met.any() else order.size
        if n_remove == 0:
            log.info(
                "prune target %.4f already met (current %.4f); nothing removed",
                target_avg_bitwidth, left[0] / params,
            )
    removed = np.zeros(order.size, dtype=bool)
    removed[order[:n_remove]] = True

    out = []
    for li, ql in enumerate(qlayers):
        keep = _retained(ql)
        keep[keep] = ~removed[layer == li]
        survivors_first = np.argsort(~keep, axis=1, kind="stable")
        signs = np.take_along_axis(ql.signs * keep[:, None], survivors_first[:, None], axis=2)
        coords = np.take_along_axis(ql.coords * keep, survivors_first, axis=1)
        out.append(replace(ql, signs=signs, coords=coords, bits=keep.sum(axis=1)))
    return out


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class PipelineReport:
    avg_bitwidth_init: float
    avg_bitwidth_pruned: float
    avg_bitwidth_final: float
    pruned_coords: int
    calib_loss_init: float | None = None
    calib_loss_pruned: float | None = None
    calib_loss_final: float | None = None


def check_group_size(spec: NetworkSpec, group_size: int,
                     error: type[Exception] = ConfigError) -> None:
    """Raise ``error`` for a group size above the largest layer's parameter
    count, which no ``ALQQ`` container can declare."""
    largest = max(row.count for row in _net.layer_table(spec))
    if group_size > largest:
        raise error(f"group size {group_size} exceeds the largest layer's {largest} values")


def init_layers(network: Network, group_size: int, i_max: int | dict) -> list[QuantLayer]:
    """Greedy init of every parameterized layer, its bits capped by ``i_max``.

    Raises ConfigError for an ``i_max`` map key other than "default" that
    names no parameterized layer of the network.
    """
    names = _net.parameterized_layers(network.spec)
    if isinstance(i_max, dict):
        unknown = set(i_max) - {name for _, name in names} - {"default"}
        if unknown:
            raise ConfigError(f"i_max names no parameterized layer: {sorted(unknown)}")
    return [
        init_decompose(_net.flatten_params(network, idx), group_size,
                       layer_i_max(i_max, name), idx)
        for idx, name in names
    ]


def refine_layers(network: Network, qlayers: list[QuantLayer], iters: int) -> list[QuantLayer]:
    """``iters`` rounds of optimize_bases then optimize_coords on all layers'
    groups as one set. Both steps act on each group alone, so a group that a
    round leaves bitwise unchanged is at a fixed point and drops out."""
    if iters == 0 or not qlayers:
        return list(qlayers)
    ends = np.cumsum([len(ql.bits) for ql in qlayers])
    spans = [slice(end - len(ql.bits), end) for ql, end in zip(qlayers, ends)]
    n = max(ql.group_size for ql in qlayers)
    width = max(ql.coords.shape[1] for ql in qlayers)
    rows = np.zeros((ends[-1], n))
    full = GroupSet(np.zeros((ends[-1], n, width), np.int8), np.zeros((ends[-1], width)),
                    np.concatenate([ql.bits for ql in qlayers]),
                    np.concatenate([ql.sizes for ql in qlayers]))
    for ql, at in zip(qlayers, spans):
        flat = _net.flatten_params(network, ql.layer_index)
        rows[at, : ql.group_size] = partition_groups(flat, ql.group_size)
        full.signs[at, : ql.group_size, : ql.coords.shape[1]] = ql.signs
        full.coords[at, : ql.coords.shape[1]] = ql.coords
    # the groups still changing: their indices, weight rows and current state
    live, cur = np.arange(ends[-1]), full
    for _ in range(iters):
        if live.size == 0:
            break
        new = optimize_coords(rows, optimize_bases(rows, cur))
        changed = ((new.signs != cur.signs).any(axis=(1, 2)) | (new.bits != cur.bits)
                   | (new.coords.view(np.int64) != cur.coords.view(np.int64)).any(axis=1))
        live, rows = live[changed], rows[changed]
        cur = GroupSet(new.signs[changed], new.coords[changed], new.bits[changed],
                       cur.sizes[changed])
        full.signs[live], full.coords[live], full.bits[live] = cur.signs, cur.coords, cur.bits
    return [replace(ql, signs=full.signs[at, : ql.group_size], coords=full.coords[at],
                    bits=full.bits[at]) for ql, at in zip(qlayers, spans)]


def calib_subset(calib, config: AlqConfig):
    """At most ``config.calib_batch`` calibration records, drawn with the config seed."""
    if not calib:  # None or no records
        return None
    if len(calib) <= config.calib_batch:
        return calib
    rng = np.random.default_rng(config.seed)
    idx = np.sort(rng.choice(len(calib), size=config.calib_batch, replace=False))
    return Dataset(calib.records[idx], calib.labels()[idx], calib.class_count)


def calib_loss(spec, qlayers, batch):
    """Mean cross-entropy of the dequantized layers on a batch (None without one)."""
    if batch is None:
        return None
    return _net.batch_loss(dequantized_network(spec, qlayers), batch.records, batch.labels())


def alq_runs(network: Network, calib, config: AlqConfig, targets):
    """Quantize a trained network once per (prune_rate, target_avg_bitwidth)
    pair in ``targets``: init and scoring run once and are shared by every
    target, then each target prunes, refines and yields (QuantModel,
    PipelineReport) with its own config digest.

    ``calib`` supplies the records for loss-aware scoring and the report's
    losses; it may be None for the magnitude scorer or when no target prunes
    (losses are then None). The loss-aware score's forward also gives
    ``calib_loss_init``, so a target costs a pruned and a final calibration
    forward, or only the final one if it prunes nothing. Invalid targets, a
    group size above the largest layer's parameter count and loss-aware
    pruning without records raise ConfigError before any layer is decomposed.
    """
    configs = [replace(config, prune_rate=rate, target_avg_bitwidth=avg)
               for rate, avg in targets]
    prunes = any(c.prunes for c in configs)
    check_group_size(network.spec, config.group_size)
    if prunes and config.scorer == "loss_aware" and not calib:  # None or no records
        raise ConfigError("loss_aware pruning requires calibration records")
    initial = init_layers(network, config.group_size, config.i_max)
    batch = calib_subset(calib, config)
    avg_init, coords_init = model_avg_bitwidth(initial), total_coords(initial)
    loss_init = None
    if prunes:
        scores, loss_init = score_coordinates(
            initial, network, batch, config.scorer, config.curvature_weight
        )
    if loss_init is None:  # no loss-aware forward ran
        loss_init = calib_loss(network.spec, initial, batch)

    for target in configs:
        qlayers, loss_pruned = initial, loss_init
        if target.prunes:
            qlayers = prune_coordinates(initial, scores, rate=target.prune_rate,
                                        target_avg_bitwidth=target.target_avg_bitwidth)
            loss_pruned = calib_loss(network.spec, qlayers, batch)
        avg_pruned = model_avg_bitwidth(qlayers)
        qlayers = refine_layers(network, qlayers, config.refine_iters)
        report = PipelineReport(
            avg_bitwidth_init=avg_init,
            avg_bitwidth_pruned=avg_pruned,
            avg_bitwidth_final=model_avg_bitwidth(qlayers),
            pruned_coords=coords_init - total_coords(qlayers),
            calib_loss_init=loss_init,
            calib_loss_pruned=loss_pruned,
            calib_loss_final=calib_loss(network.spec, qlayers, batch),
        )
        model = QuantModel(network.spec, qlayers, config.group_size,
                           ModelMeta(target.seed, target.digest()))
        yield model, report


def alq_pipeline(network: Network, calib, config: AlqConfig) -> tuple[QuantModel, PipelineReport]:
    """Quantize a trained network at ``config``'s own pruning target: the one
    run of ``alq_runs`` (see there for ``calib``, the calibration forwards
    and the errors)."""
    return next(alq_runs(network, calib, config,
                         [(config.prune_rate, config.target_avg_bitwidth)]))


def uniform_baseline(network: Network, i: int, n: int) -> QuantModel:
    """Fixed-bitwidth comparator: greedy init at exactly i bits, no pruning."""
    if i < 1:
        raise ConfigError("bitwidth must be >= 1")
    qlayers = init_layers(network, n, i)
    digest = hashlib.sha256(
        json.dumps({"uniform": i, "group_size": n}, sort_keys=True).encode()
    ).hexdigest()
    return QuantModel(network.spec, qlayers, n, ModelMeta(0, digest))
