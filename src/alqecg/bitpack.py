"""Bit-packed container for quantized models plus memory accounting.

``ALQQ`` version 3 layout, all little-endian:

* magic ``ALQQ``, u16 version
* network descriptor (shared with the checkpoint format), then model meta:
  u64 creation seed and the 32-byte config digest
* u16 group size n, at most the largest layer's parameter count
* per parameterized layer: u32 group count, which must be ceil(count / n);
  every group's u8 bitwidth, as one array; the coordinate block, every
  retained coordinate as f32, group by group; then the sign block, one
  packed column per retained coordinate in the same order. Columns pack
  LSB-first: bit b of byte j holds the sign of weight position 8j+b
  (+1 -> 1), each column padded to a whole byte with zero bits.

No group size is stored: the partition fixes it (every group full except a
short last one). The writer packs all columns with one ``np.packbits`` and
cuts each layer's blocks from its span of the model's groups
(``quantizer.layer_spans``); the reader reads a layer's blocks whole, with
one ``np.unpackbits``. Neither loops over groups. Each part is checked as
soon as it is read, so a fault is reported in byte order, at its own
offset: the group count, the first bitwidth above the limit, a cut block at
the block's start, the first bad coordinate, then the first bad column at
its first byte. The writer refuses the same coordinates and columns first.
Versions 1 and 2,
which stored a u16 size before each bitwidth or interleaved each group's
coordinates with its columns, are not read.

The memory accounting mirrors the usual multi-bit storage convention:
the headline figure counts sign bits only (params x average bitwidth),
coordinate overhead (32 bits per retained coordinate) and the exact
container size are reported separately. 1 KB = 1024 bytes.
"""

from __future__ import annotations

import itertools
import numbers
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import net as _net
from .errors import ContainerFormatError
from .net import NetworkSpec
from .quantizer import (
    ENUM_BITWIDTH_LIMIT,
    Groups,
    ModelMeta,
    QuantModel,
    check_group_size,
    group_sizes,
    layer_spans,
)

MAGIC = b"ALQQ"
VERSION = 3
COORD_BITS = 32
BASELINE_BITS = 32
# u64 seed, 32-byte digest, u16 group size
_META_BYTES = 8 + 32 + 2


def _coords_from(raw: np.ndarray, retained: np.ndarray):
    """(G, W) float64 coordinates from the retained f32 values ``raw`` in
    group order, and (index into ``raw``, problem) of the first value that
    is not finite, not positive or above its predecessor, else None."""
    # checked on the f32 values: the f64 cast warns on a signalling NaN
    finite = np.isfinite(raw)
    coords = np.zeros(retained.shape)
    coords[retained] = np.where(finite, raw, 0)
    rising = np.diff(coords, axis=1, prepend=np.inf) > 0
    faults = np.stack([~finite, coords[retained] <= 0, rising[retained]])
    if not faults.any():
        return coords, None
    k = int(faults.any(axis=0).argmax())
    return coords, (k, ["non-finite coordinate", "non-positive coordinate",
                        "coordinates not descending"][faults[:, k].argmax()])


def _repeated(columns: np.ndarray, retained: np.ndarray) -> np.ndarray:
    """For every retained column of (G, W, bytes) packed ``columns``, in
    group order, whether it equals an earlier column of its group."""
    repeated = np.zeros(retained.shape, dtype=bool)
    for i, j in itertools.combinations(range(retained.shape[1]), 2):
        repeated[:, j] |= (columns[:, i] == columns[:, j]).all(axis=1)
    return repeated[retained]


def serialize_bytes(model: QuantModel) -> bytes:
    """The model's ``ALQQ`` bytes. Raises ContainerFormatError for what the
    loader would reject: a seed outside 0..2**64-1, a digest that is not 32
    bytes of hex, a group size above the largest layer's parameter count, or
    a group's coordinates or sign columns, named by layer and group."""
    parts = [_net.pack_header(MAGIC, VERSION, model.spec)]
    seed = model.meta.seed
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ContainerFormatError(f"seed {seed!r} is not in 0..2**64-1")
    try:
        digest = bytes.fromhex(model.meta.config_digest)
    except (TypeError, ValueError):
        digest = b""
    if len(digest) != 32:
        raise ContainerFormatError("config digest must be 32 bytes of hex")
    check_group_size(model.spec, model.group_size, ContainerFormatError)
    parts.append(struct.pack("<Q", seed))
    parts.append(digest)
    parts.append(struct.pack("<H", model.group_size))

    g, spans = model.groups, layer_spans(model.spec, model.group_size)
    retained = np.arange(g.coords.shape[1]) < g.bits[:, None]
    with np.errstate(over="ignore"):  # beyond f32 range: refused as non-finite
        raw = g.coords.astype("<f4")
    # (G, n, W) signs -> (G, W, ceil(n/8)) column bytes, zero past each size
    plus = (g.signs > 0) & (np.arange(model.group_size) < g.sizes[:, None])[:, :, None]
    columns = np.packbits(plus, axis=1, bitorder="little").transpose(0, 2, 1)
    fault = _coords_from(raw[retained], retained)[1]
    repeated = _repeated(columns, retained)
    if fault is not None or repeated.any():
        group, col = np.nonzero(retained)
        if fault is None:
            k = int(repeated.argmax())
            fault = k, f"duplicate base column {col[k]}"
        k, problem = fault
        row, span = next((row, span) for row, span in spans if group[k] < span.stop)
        raise ContainerFormatError(f"layer {row.index} group {group[k] - span.start}: {problem}")
    in_column = retained[:, :, None] & (np.arange(columns.shape[2])
                                        < (g.sizes[:, None, None] + 7) // 8)
    for _, span in spans:
        bits = g.bits[span]
        parts += [struct.pack("<I", len(bits)), bits.astype(np.uint8).tobytes(),
                  raw[span][retained[span]].tobytes(), columns[span][in_column[span]].tobytes()]
    return b"".join(parts)


def serialize(model: QuantModel, path) -> None:
    Path(path).write_bytes(serialize_bytes(model))


def _read_layer(reader, layer_index: int, group_size: int, count: int):
    """Validated arrays of one layer's groups: (G, W, n) sign columns,
    (G, W) coordinates, bits and sizes, with W the layer's widest group.

    Each part is checked right after it is read, so faults are reported in
    byte order, each at its own offset.
    """
    at = reader.offset
    n_groups = reader.take("<I", "group count")
    sizes = group_sizes(count, group_size)
    if n_groups != len(sizes):
        raise ContainerFormatError(
            f"layer {layer_index}: {n_groups} groups, partition of {count} values "
            f"expects {len(sizes)}", at)
    bits_at = reader.offset
    bits = np.frombuffer(reader.take_bytes(n_groups, "group bitwidths"),
                         dtype=np.uint8).astype(np.int64)
    over = np.flatnonzero(bits > ENUM_BITWIDTH_LIMIT)
    if over.size:
        gi = int(over[0])
        raise ContainerFormatError(f"layer {layer_index} group {gi}: bitwidth {bits[gi]} "
                                   f"exceeds {ENUM_BITWIDTH_LIMIT}", bits_at + gi)
    retained = np.arange(bits.max(initial=0)) < bits[:, None]
    g, c = np.nonzero(retained)

    coords_at = reader.offset
    raw = np.frombuffer(reader.take_bytes(4 * len(g), "coordinate block"), dtype="<f4")
    coords, fault = _coords_from(raw, retained)
    if fault is not None:
        k, problem = fault
        raise ContainerFormatError(f"layer {layer_index} group {g[k]}: {problem}",
                                   coords_at + 4 * k)

    signs_at = reader.offset
    col_bytes = (sizes + 7) // 8
    packed = np.zeros((*retained.shape, (group_size + 7) // 8), dtype=np.uint8)
    in_column = retained[:, :, None] & (np.arange(packed.shape[2]) < col_bytes[:, None, None])
    packed[in_column] = np.frombuffer(
        reader.take_bytes(int(bits @ col_bytes), "sign block"), dtype=np.uint8)
    plane = np.unpackbits(packed, axis=2, bitorder="little").astype(bool)
    in_group = np.arange(plane.shape[2]) < sizes[:, None, None]
    pad_bits = (plane & ~in_group).any(axis=2)[retained]
    duplicate = _repeated(packed, retained)
    if (pad_bits | duplicate).any():
        k = int((pad_bits | duplicate).argmax())
        problem = "non-zero pad bits in" if pad_bits[k] else "duplicate"
        raise ContainerFormatError(f"layer {layer_index} group {g[k]}: {problem} base "
                                   f"column {c[k]}", signs_at + int(col_bytes[g[:k]].sum()))
    signs = np.where(in_group & retained[:, :, None], 2 * plane.astype(np.int8) - 1, 0)
    return signs[:, :, :group_size], coords, bits, sizes


def deserialize_bytes(data: bytes) -> QuantModel:
    reader, spec, table = _net.read_header(data, MAGIC, VERSION)
    seed = reader.take("<Q", "meta seed")
    digest = reader.take_bytes(32, "meta digest").hex()
    at = reader.offset
    group_size = reader.take("<H", "group size")
    largest = max(row.count for row in table)
    if not 1 <= group_size <= largest:
        raise ContainerFormatError(
            f"group size {group_size} outside 1..{largest} (the largest layer's "
            "parameter count)", at)

    spans = layer_spans(spec, group_size, table)
    columns, coords, bits, sizes = zip(*[
        _read_layer(reader.at_context(row.name), row.index, group_size, row.count)
        for row, _ in spans])
    reader.finish()
    # one set as wide as the widest group, its sign columns contiguous:
    # (G, W, n) seen as (G, n, W)
    signs = np.zeros((spans[-1][1].stop, max(c.shape[1] for c in coords), group_size), np.int8)
    model_coords = np.zeros(signs.shape[:2])
    for (_, span), layer_columns, layer_coords in zip(spans, columns, coords):
        signs[span, : layer_coords.shape[1]] = layer_columns
        model_coords[span, : layer_coords.shape[1]] = layer_coords
    groups = Groups(signs.transpose(0, 2, 1), model_coords, np.concatenate(bits),
                    np.concatenate(sizes))
    return QuantModel(spec, groups, group_size, ModelMeta(seed, digest), table)


def deserialize(path) -> QuantModel:
    return deserialize_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# memory accounting


@dataclass
class LayerMemory:
    name: str
    avg_bitwidth: float
    params: int
    base_bits: int


@dataclass
class MemoryReport:
    rows: list[LayerMemory]
    total_params: int
    total_base_bits: int
    total_avg_bitwidth: float
    total_kb: float
    compression_rate: float
    coord_overhead_bits: int | None = None
    container_bits: int | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["layers"] = out.pop("rows")
        if not np.isfinite(self.compression_rate):
            out["compression_rate"] = None
        return out

    def format_table(self) -> str:
        lines = [f"{'Layer':<10} {'Average Bitwidth':>16} {'Params':>8} {'Memory':>12}"]
        for r in self.rows:
            lines.append(
                f"{r.name:<10} {r.avg_bitwidth:>16.4f} {r.params:>8,} {r.base_bits:>8,} Bit"
            )
        lines.append(
            f"{'Total':<10} {self.total_avg_bitwidth:>16.4f} {self.total_params:>8,} "
            f"{self.total_base_bits:>8,} Bit = {self.total_kb:.3f} KB"
        )
        rate = self.compression_rate
        lines.append(f"Compression vs {BASELINE_BITS}-bit baseline: "
                     + (f"{rate:.2f}x (sign bits only)" if np.isfinite(rate)
                        else "n/a (0 base bits)"))
        if self.container_bits is not None:
            file_rate = self.total_params * BASELINE_BITS / self.container_bits
            lines.append(f"Container file: {self.container_bits // 8:,} B, "
                         f"{file_rate:.2f}x smaller than {BASELINE_BITS}-bit weights")
        if self.coord_overhead_bits is not None:
            lines.append(f"Coordinate overhead: {self.coord_overhead_bits:,} Bit")
        return "\n".join(lines) + "\n"


def _finish_report(rows, coord_overhead=None, container_bits=None) -> MemoryReport:
    total_params = sum(r.params for r in rows)
    total_bits = sum(r.base_bits for r in rows)
    rate = (total_params * BASELINE_BITS / total_bits) if total_bits else float("inf")
    return MemoryReport(
        rows=rows,
        total_params=total_params,
        total_base_bits=total_bits,
        total_avg_bitwidth=total_bits / total_params,
        total_kb=round(total_bits / 8 / 1024, 3),
        compression_rate=rate,
        coord_overhead_bits=coord_overhead,
        container_bits=container_bits,
    )


def memory_report(model: QuantModel) -> MemoryReport:
    """Per-layer and total sign-bit accounting for a quantized model.

    The container size follows from the group sizes and bitwidths alone:
    per layer a u32 group count, one u8 bitwidth per group, and per retained
    coordinate its f32 and its byte-padded sign column.
    """
    rows = []
    coord_overhead = 0
    container = len(_net.pack_header(MAGIC, VERSION, model.spec)) + _META_BYTES
    for row, span in layer_spans(model.spec, model.group_size):
        sizes, bits = model.groups.sizes[span], model.groups.bits[span]
        base_bits = int(sizes @ bits)
        coord_overhead += int(bits.sum()) * COORD_BITS
        container += 4 + len(bits) + int(bits @ (4 + (sizes + 7) // 8))
        rows.append(LayerMemory(row.name, base_bits / row.count, row.count, base_bits))
    return _finish_report(rows, coord_overhead, container * 8)


def injected_memory_report(spec: NetworkSpec, bitwidths) -> MemoryReport:
    """Accounting for externally supplied per-layer average bitwidths.

    ``bitwidths`` is a {layer name: avg bitwidth} map or a sequence aligned
    with the parameterized layers; base bits are params x bitwidth rounded to
    the nearest bit.
    """
    counts, _total = _net.param_counts(spec)
    if not isinstance(bitwidths, dict):
        if len(bitwidths) != len(counts):
            raise ValueError(f"expected {len(counts)} bitwidths, got {len(bitwidths)}")
        bitwidths = {name: bw for (name, _), bw in zip(counts, bitwidths)}
    rows = []
    for name, params in counts:
        if name not in bitwidths:
            raise ValueError(f"missing bitwidth for layer {name}")
        bw = float(bitwidths[name])
        rows.append(LayerMemory(name, bw, params, int(np.floor(params * bw + 0.5))))
    return _finish_report(rows)
