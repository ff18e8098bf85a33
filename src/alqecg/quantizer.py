"""Adaptive multi-bit binary weight quantization.

A layer's P flattened parameters are cut into ceil(P / n) groups of
``n = group_size`` values; group g starts at g * n and has size
min(n, P - g * n), so only the last group may be short. A group w is
approximated as B @ a: B a {-1,+1} sign matrix (one column per retained bit),
a a positive, descending coordinate vector; zero columns reconstruct zeros.
``Groups`` holds any G groups as four arrays:

* ``signs`` (G, n, W) int8: group g's column k is ``signs[g, :, k]``, +-1 in
  its first ``bits[g]`` columns and first ``sizes[g]`` rows, 0 elsewhere;
* ``coords`` (G, W) float64: the coordinates, zero past ``bits[g]``;
* ``bits`` (G,): every group's bitwidth, with W >= max(bits);
* ``sizes`` (G,): every group's number of values.

A ``QuantModel`` holds all its layers' groups as one set (see ``layer_spans``).
The pipeline is:

1. greedy residual binarization of every group up to its layer's bit cap,
2. global pruning of the least significant coordinates, scored either by
   magnitude or by an estimated loss impact on a calibration batch,
3. alternating refinement: exact per-position sign assignment with fixed
   coordinates, then least-squares coordinates with fixed signs.

Each stage makes one pass over the whole set, running all groups of one size
and bitwidth as one batch, with the same arithmetic per group as a loop over
groups. ``alq_runs`` runs step 1 and the scoring once and shares them across
all pruning targets; ``alq_pipeline`` is its one-target case. Every operation
is a pure function of its inputs, so a fixed seed and calibration batch
reproduce the quantized model bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import numbers
from dataclasses import InitVar, dataclass, field, replace
from functools import partial

import numpy as np

from . import net as _net
from .data import Dataset
from .errors import ConfigError
from .net import LayerRow, Network, NetworkSpec
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
class Groups:
    """A set of groups as arrays (see above).

    The arrays are read-only views and sets compare and hash by identity;
    stages that change groups return a new set.
    """

    signs: np.ndarray
    coords: np.ndarray
    bits: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        for name, dtype in [("signs", np.int8), ("coords", np.float64), ("bits", np.int64),
                            ("sizes", np.int64)]:
            # a fresh view: the caller's array stays writeable
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype)[:])
            getattr(self, name).flags.writeable = False

    def __getitem__(self, index) -> "Groups":
        """The groups at ``index`` (a mask or indices), as wide as this set."""
        return Groups(self.signs[index], self.coords[index], self.bits[index], self.sizes[index])

    def trimmed(self, span: slice = slice(None)) -> "Groups":
        """The groups in ``span``, cut to W = the widest of them."""
        width = int(self.bits[span].max(initial=0))
        return Groups(self.signs[span, :, :width], self.coords[span, :width],
                      self.bits[span], self.sizes[span])


def layer_spans(spec: NetworkSpec, group_size: int,
                table: list[LayerRow] | None = None) -> list[tuple[LayerRow, slice]]:
    """(table row, slice of the model's groups) of every parameterized layer:
    ceil(count / group_size) groups per layer, in layer order. ``table`` is
    the spec's ``net.layer_table``, for a caller that has walked it already.

    Raises ConfigError for a group size outside 1 up to the largest layer's
    parameter count: a larger one would pad every layer's single group past
    the layer's values, and no ``ALQQ`` container declares one."""
    table = table or _net.layer_table(spec)
    largest = max(row.count for row in table)
    if not 1 <= group_size <= largest:
        raise ConfigError(f"group size {group_size} outside 1..{largest} (the largest "
                          "layer's parameter count)")
    spans, end = [], 0
    for row in table:
        if row.name:
            start, end = end, end - (-row.count // group_size)
            spans.append((row, slice(start, end)))
    return spans


@dataclass
class ModelMeta:
    seed: int = 0
    config_digest: str = "0" * 64


@dataclass(frozen=True)
class QuantModel:
    """Every parameterized layer's groups as one set, plus the spec and group
    size they partition. Raises ConfigError unless ``groups`` is exactly the
    spec's partition at ``group_size``, of at most ENUM_BITWIDTH_LIMIT bits a
    group, or for a group size that ``layer_spans`` rejects; ``table`` goes
    to ``layer_spans``."""

    spec: NetworkSpec
    groups: Groups
    group_size: int
    meta: ModelMeta = field(default_factory=ModelMeta)
    table: InitVar[list[LayerRow] | None] = None

    def __post_init__(self, table):
        n, g = self.group_size, self.groups
        sizes = np.concatenate([group_sizes(row.count, n)
                                for row, _ in layer_spans(self.spec, n, table)])
        count, width, top = len(sizes), g.coords.shape[-1], int(g.bits.max(initial=0))
        shapes = (g.signs.shape, g.coords.shape, g.bits.shape)
        if (shapes != ((count, n, width), (count, width), (count,))
                or not np.array_equal(g.sizes, sizes) or top > width):
            raise ConfigError(f"groups of shape {g.signs.shape} are not the spec's layers "
                              f"cut into {count} groups of at most {n} values")
        if top > ENUM_BITWIDTH_LIMIT:
            raise ConfigError(f"a {top}-bit group exceeds the {ENUM_BITWIDTH_LIMIT}-bit limit")


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
        prune = raw.get("prune", {})
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

    A group already in that form (every coordinate above COORD_EPS, strictly
    descending, and pairwise-distinct +-1 columns) is returned as it is,
    which is what the steps above would give it; only the other groups take
    them, their duplicates found with one ``row_keys`` key per column.
    """
    signs = np.asarray(signs, dtype=np.int8)
    coords = np.asarray(coords, dtype=np.float64)
    k = coords.shape[1]
    canonical = ((coords > COORD_EPS).all(axis=1) & (np.diff(coords, axis=1) < 0).all(axis=1)
                 & (np.abs(signs) == 1).all(axis=(1, 2)))
    for i, j in itertools.combinations(range(k), 2):
        canonical &= (signs[:, :, i] != signs[:, :, j]).any(axis=1)
    out_signs, out_coords, bits = signs.copy(), coords.copy(), np.full(len(coords), k)
    rest = np.flatnonzero(~canonical)
    if rest.size:
        out_signs[rest], out_coords[rest], bits[rest] = _rebuild(signs[rest], coords[rest])
    return out_signs, out_coords, bits


def _rebuild(signs: np.ndarray, coords: np.ndarray):
    """``canonicalize``'s flip, merge, drop and sort, on every group."""
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


def group_rows(spec: NetworkSpec, group_size: int, flat_of) -> np.ndarray:
    """(G, n) rows of every parameterized layer's flattened values
    ``flat_of(layer index)``, in the model's group order, zero-padded."""
    return np.concatenate([partition_groups(flat_of(row.index), group_size)
                           for row, _ in layer_spans(spec, group_size)])


def init_decompose(rows: np.ndarray, sizes: np.ndarray, caps: np.ndarray) -> Groups:
    """Greedy residual binarization of (G, n) weight rows: group g's first
    ``sizes[g]`` values take up to ``caps[g]`` bits, each peeling off
    mean(|r|) * sign(r).

    A group stops once its residual scale drops below the coordinate
    epsilon; an all-zero group yields an empty decomposition.
    """
    caps = np.asarray(caps)
    if (caps < 1).any():
        raise ConfigError("i_max must be >= 1")
    signs = np.zeros((*rows.shape, int(caps.max(initial=0))), dtype=np.int8)
    coords = np.zeros((len(rows), signs.shape[2]))
    bits = np.zeros(len(rows), dtype=np.int64)
    for idx, m, cap in _batches(sizes, caps):
        r = rows[idx, :m]
        cols = np.zeros((len(idx), m, cap), dtype=np.int8)
        alphas = np.zeros((len(idx), cap))
        live = np.ones(len(idx), dtype=bool)
        for k in range(cap):
            alpha = np.abs(r).mean(axis=1)
            live &= alpha > COORD_EPS
            beta = 2 * (r >= 0).view(np.int8) - 1
            cols[:, :, k] = beta
            alphas[:, k] = np.where(live, alpha, 0.0)
            r = np.where(live[:, None], r - alpha[:, None] * beta, r)
        signs[idx, :m, :cap], coords[idx, :cap], bits[idx] = canonicalize(cols, alphas)
    return Groups(signs, coords, bits, sizes).trimmed()


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
    # branch-free updates: masked writes and np.where cost several times as
    # much on the random masks this loop makes. The minimum keeps the first
    # nearest distance as the masked choice would, unless an infinite weight
    # or coordinate makes some of a weight's distances NaN
    for j in range(1, len(table)):
        d = np.abs(w - levels[:, j, None])
        best += (d < best_d) * (j - best)
        best_d = np.minimum(d, best_d)
    return table.take(np.take_along_axis(rank, best, axis=1), axis=0)


def optimize_bases(w: np.ndarray, groups: Groups) -> Groups:
    """Exact per-position sign assignment for fixed coordinates, on
    (groups, size) weight rows ``w`` and their Groups.

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


def optimize_coords(w: np.ndarray, groups: Groups) -> Groups:
    """Least-squares coordinates for fixed sign bases, then re-canonicalize,
    on (groups, size) weight rows ``w`` and their Groups.

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


def model_avg_bitwidth(groups: Groups) -> float:
    """Weight-weighted average bitwidth of a set of groups."""
    return int(groups.sizes @ groups.bits) / int(groups.sizes.sum())


def total_coords(groups: Groups) -> int:
    return int(groups.bits.sum())


# ---------------------------------------------------------------------------
# scoring and pruning


def dequantized_network(model: QuantModel) -> Network:
    """Rebuild a full-precision Network from group reconstructions, one
    layer's span of groups at a time, each cut to its widest group."""
    g = model.groups
    params: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(model.spec.layers)
    for row, span in layer_spans(model.spec, model.group_size):
        width = int(g.bits[span].max(initial=0))
        values = _reconstruct(g.signs[span, :, :width], g.coords[span, :width])
        params[row.index] = row.unflatten(values.reshape(-1)[: row.count])
    return Network(model.spec, params)


def _retained(groups: Groups) -> np.ndarray:
    """(G, W) mask of the coordinates each group keeps."""
    return np.arange(groups.coords.shape[1]) < groups.bits[:, None]


def score_coordinates(
    model: QuantModel,
    calib,
    mode: str,
    curvature_weight: float = 1.0,
) -> tuple[np.ndarray, float | None]:
    """Significance score for every retained coordinate (lower = prune first).

    Returns one array shaped like the model's ``coords``, NaN past each
    group's bitwidth, and the mean cross-entropy of the calibration forward
    pass that the loss-aware gradient came from (None for magnitude). That
    loss equals ``calib_loss`` of the model on ``calib`` bit for bit.

    magnitude: a * sqrt(group size), the norm of the removed contribution.
    loss_aware: |g . (a * column)| + curvature_weight/2 * a^2 * group size,
    where g is the mean cross-entropy gradient over the calibration records,
    taken at the dequantized weights. Ties later break by magnitude, then by
    (group, coordinate) position.
    """
    if mode not in ("magnitude", "loss_aware"):
        raise ConfigError(f"unknown scorer {mode!r}")
    groups = model.groups
    a, sizes = groups.coords, groups.sizes[:, None]
    loss: float | None = None
    if mode == "magnitude":
        s = a * np.sqrt(sizes)
    else:
        if not calib:
            raise ConfigError("loss_aware scoring requires a calibration set")
        loss, grads = _net.loss_gradients(dequantized_network(model), calib.records,
                                          calib.labels())
        g = group_rows(model.spec, model.group_size, grads.__getitem__)
        dots = np.zeros_like(a)
        for idx, m, b in _batches(groups.sizes, groups.bits):
            # one unit-stride dot per (group, column), as g_slice @ col does
            cols = np.ascontiguousarray(groups.signs[idx, :m, :b].transpose(0, 2, 1), float)
            g_rows = np.repeat(g[idx, :m], b, axis=0)[:, :, None]
            dots[idx, :b] = (cols.reshape(-1, 1, m) @ g_rows).reshape(len(idx), b)
        s = a * np.abs(dots) + 0.5 * curvature_weight * a * a * sizes
    return np.where(_retained(groups), s, np.nan), loss


def prune_coordinates(
    groups: Groups,
    scores: np.ndarray,
    rate: float | None = None,
    target_avg_bitwidth: float | None = None,
) -> Groups:
    """Remove the lowest-scored coordinates globally until the target is met.

    Coordinates are removed in order of (score, magnitude, group,
    coordinate); in a model's groups that is (layer, group) order. ``rate``
    removes that fraction of all retained coordinates (1.0 empties the set);
    ``target_avg_bitwidth`` stops once the weight-weighted average bitwidth
    is at or below the target. Already-met targets are a logged no-op.
    Survivors keep their order in each group.
    """
    if (rate is None) == (target_avg_bitwidth is None):
        raise ConfigError("specify exactly one of rate / target_avg_bitwidth")
    keep = _retained(groups)
    group, coord = np.nonzero(keep)
    if np.shape(scores) != groups.coords.shape or np.isnan(scores[group, coord]).any():
        raise ConfigError("scores missing for retained coordinates")
    size = groups.sizes[group]
    order = np.lexsort((coord, group, groups.coords[group, coord] * np.sqrt(size),
                        scores[group, coord]))

    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigError("prune rate must be in [0,1]")
        n_remove = int(np.floor(rate * order.size + 0.5))
    else:
        params = int(groups.sizes.sum())
        # sign bits left after removing the first k coordinates, k = 0..all
        left = int(groups.sizes @ groups.bits) - np.cumsum(np.concatenate([[0], size[order]]))
        met = left / params <= target_avg_bitwidth
        n_remove = int(met.argmax()) if met.any() else order.size
        if n_remove == 0:
            log.info(
                "prune target %.4f already met (current %.4f); nothing removed",
                target_avg_bitwidth, left[0] / params,
            )
    removed = np.zeros(order.size, dtype=bool)
    removed[order[:n_remove]] = True
    keep[keep] = ~removed
    group, coord = np.nonzero(keep)
    pos = np.cumsum(keep, axis=1)[group, coord] - 1
    signs, coords = np.zeros_like(groups.signs), np.zeros_like(groups.coords)
    signs[group, :, pos] = groups.signs[group, :, coord]
    coords[group, pos] = groups.coords[group, coord]
    return Groups(signs, coords, keep.sum(axis=1), groups.sizes).trimmed()


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


def init_layers(network: Network, group_size: int, i_max: int | dict) -> QuantModel:
    """Greedy init of every parameterized layer's groups, each capped at its
    layer's ``i_max``, in one ``init_decompose`` pass.

    Raises ConfigError for an ``i_max`` map key other than "default" that
    names no parameterized layer of the network.
    """
    spec = network.spec
    spans = layer_spans(spec, group_size)
    if isinstance(i_max, dict):
        unknown = set(i_max) - {row.name for row, _ in spans} - {"default"}
        if unknown:
            raise ConfigError(f"i_max names no parameterized layer: {sorted(unknown)}")
    sizes = np.concatenate([group_sizes(row.count, group_size) for row, _ in spans])
    caps = np.concatenate([np.full(span.stop - span.start, layer_i_max(i_max, row.name))
                           for row, span in spans])
    rows = group_rows(spec, group_size, partial(_net.flatten_params, network))
    return QuantModel(spec, init_decompose(rows, sizes, caps), group_size)


def refine_layers(network: Network, model: QuantModel, iters: int) -> QuantModel:
    """``iters`` rounds of optimize_bases then optimize_coords on the model's
    groups. Both steps act on each group alone, so a group that a round
    leaves bitwise unchanged is at a fixed point and drops out. A group whose
    last coordinate step kept its signs and bitwidth drops out as soon as the
    bases step keeps its signs too: the coordinate step would solve the same
    system again and keep the same decomposition."""
    if iters == 0:
        return model
    rows = group_rows(model.spec, model.group_size, partial(_net.flatten_params, network))
    cur = model.groups
    signs, coords, bits = cur.signs.copy(), cur.coords.copy(), cur.bits.copy()
    # the groups still changing: their indices, weight rows and current state,
    # and whether their last coordinate step kept their signs
    live = np.arange(len(bits))
    settled = np.zeros(len(bits), dtype=bool)
    for _ in range(iters):
        based = optimize_bases(rows, cur)
        if settled.any():
            moved = ~settled | (based.signs != cur.signs).any(axis=(1, 2))
            live, rows, cur, based = live[moved], rows[moved], cur[moved], based[moved]
        if live.size == 0:
            break
        new = optimize_coords(rows, based)
        changed = ((new.signs != cur.signs).any(axis=(1, 2)) | (new.bits != cur.bits)
                   | (new.coords.view(np.int64) != cur.coords.view(np.int64)).any(axis=1))
        settled = (new.signs == based.signs).all(axis=(1, 2)) & (new.bits == based.bits)
        live, rows, cur, settled = live[changed], rows[changed], new[changed], settled[changed]
        signs[live], coords[live], bits[live] = cur.signs, cur.coords, cur.bits
    return replace(model, groups=Groups(signs, coords, bits, model.groups.sizes).trimmed())


def calib_subset(calib, config: AlqConfig):
    """At most ``config.calib_batch`` calibration records, drawn with the config seed."""
    if not calib:  # None or no records
        return None
    if len(calib) <= config.calib_batch:
        return calib
    rng = np.random.default_rng(config.seed)
    idx = np.sort(rng.choice(len(calib), size=config.calib_batch, replace=False))
    return Dataset(calib.records[idx], calib.labels()[idx], calib.class_count)


def calib_loss(model: QuantModel, batch):
    """Mean cross-entropy of the dequantized model on a batch (None without one)."""
    if batch is None:
        return None
    return _net.batch_loss(dequantized_network(model), batch.records, batch.labels())


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
    layer_spans(network.spec, config.group_size)
    if prunes and config.scorer == "loss_aware" and not calib:  # None or no records
        raise ConfigError("loss_aware pruning requires calibration records")
    initial = init_layers(network, config.group_size, config.i_max)
    batch = calib_subset(calib, config)
    avg_init, coords_init = model_avg_bitwidth(initial.groups), total_coords(initial.groups)
    loss_init = None
    if prunes:
        scores, loss_init = score_coordinates(initial, batch, config.scorer,
                                              config.curvature_weight)
    if loss_init is None:  # no loss-aware forward ran
        loss_init = calib_loss(initial, batch)

    for target in configs:
        model, loss_pruned = initial, loss_init
        if target.prunes:
            model = replace(initial, groups=prune_coordinates(
                initial.groups, scores, rate=target.prune_rate,
                target_avg_bitwidth=target.target_avg_bitwidth))
            loss_pruned = calib_loss(model, batch)
        avg_pruned = model_avg_bitwidth(model.groups)
        model = refine_layers(network, model, config.refine_iters)
        report = PipelineReport(
            avg_bitwidth_init=avg_init,
            avg_bitwidth_pruned=avg_pruned,
            avg_bitwidth_final=model_avg_bitwidth(model.groups),
            pruned_coords=coords_init - total_coords(model.groups),
            calib_loss_init=loss_init,
            calib_loss_pruned=loss_pruned,
            calib_loss_final=calib_loss(model, batch),
        )
        yield replace(model, meta=ModelMeta(target.seed, target.digest())), report


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
    digest = hashlib.sha256(
        json.dumps({"uniform": i, "group_size": n}, sort_keys=True).encode()
    ).hexdigest()
    return replace(init_layers(network, n, i), meta=ModelMeta(0, digest))
