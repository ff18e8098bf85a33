"""Bit-packed container for quantized models plus memory accounting.

``ALQQ`` version 2 layout, all little-endian:

* magic ``ALQQ``, u16 version
* network descriptor (shared with the checkpoint format), then model meta:
  u64 creation seed and the 32-byte config digest
* u16 group size n, at most the largest layer's parameter count
* per parameterized layer: u32 group count, which must be ceil(count / n);
  every group's u8 bitwidth, as one array; then per group its coordinates
  as f32 and one packed sign column per retained bit. Columns pack
  LSB-first: bit b of byte j holds the sign of weight position 8j+b
  (+1 -> 1), each column padded to a whole byte with zero bits.

No group size is stored: the partition fixes it (every group full except a
short last one). Each group's record offset is then a cumulative sum over
the bitwidth array, so a layer's records are written and read as whole
arrays (``QuantLayer.signs``, ``coords``, ``bits``), with one
``np.packbits`` or ``np.unpackbits`` per layer and no loop over groups.
Version 1, which stored a u16 size before each bitwidth, is not read.

The memory accounting mirrors the usual multi-bit storage convention:
the headline figure counts sign bits only (params x average bitwidth),
coordinate overhead (32 bits per retained coordinate) and the exact
container size are reported separately. 1 KB = 1024 bytes.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import net as _net
from .errors import ContainerFormatError
from .net import NetworkSpec
from .quantizer import (
    ENUM_BITWIDTH_LIMIT,
    ModelMeta,
    QuantLayer,
    QuantModel,
    check_group_size,
    largest_layer,
    row_keys,
)

MAGIC = b"ALQQ"
VERSION = 2
COORD_BITS = 32
BASELINE_BITS = 32
# u16 version, u64 seed, 32-byte digest, u16 group size
_FIXED_BYTES = len(MAGIC) + 2 + 8 + 32 + 2


def _layer_records(ql: QuantLayer) -> bytes:
    """The bitwidth array, then every group's f32 coordinates and packed
    sign columns."""
    n_groups, _, width = ql.signs.shape
    sizes, bits = ql.sizes, ql.bits
    coords = np.ascontiguousarray(ql.coords, dtype="<f4").view(np.uint8)
    # (G, n, W) signs -> (G, W, ceil(n/8)) column bytes, zero past each size
    plus = (ql.signs > 0) & (np.arange(ql.group_size) < sizes[:, None])[:, :, None]
    columns = np.packbits(plus, axis=1, bitorder="little").transpose(0, 2, 1)
    retained = np.arange(width) < bits[:, None]
    in_column = np.arange(columns.shape[2]) < (sizes[:, None, None] + 7) // 8
    table = np.concatenate([coords, columns.reshape(n_groups, -1)], axis=1)
    mask = np.concatenate([
        np.repeat(retained, 4, axis=1),
        (retained[:, :, None] & in_column).reshape(n_groups, -1),
    ], axis=1)
    return bits.astype(np.uint8).tobytes() + table[mask].tobytes()


def serialize_bytes(model: QuantModel) -> bytes:
    parts = [MAGIC, struct.pack("<H", VERSION)]
    parts.append(_net.pack_spec(model.spec))
    digest = bytes.fromhex(model.meta.config_digest)
    if len(digest) != 32:
        raise ContainerFormatError("config digest must be 32 bytes of hex")
    check_group_size(model.spec, model.group_size, ContainerFormatError)
    parts.append(struct.pack("<Q", model.meta.seed))
    parts.append(digest)
    parts.append(struct.pack("<H", model.group_size))
    for ql in model.layers:
        parts.append(struct.pack("<I", len(ql.bits)))
        parts.append(_layer_records(ql))
    return b"".join(parts)


def serialize(model: QuantModel, path) -> None:
    Path(path).write_bytes(serialize_bytes(model))


def _read_layer(reader, layer_index: int, group_size: int, count: int):
    """Validated (signs, coords, bits) arrays of one layer's groups.

    Faults are reported in group order: a group's bad bitwidth, cut-short
    record or bad contents, whichever group comes first. Only complete
    groups before the first bad bitwidth are unpacked.
    """
    at = reader.offset
    n_groups = reader.take("<I", "group count")
    expected = -(-count // group_size)
    if n_groups != expected:
        raise ContainerFormatError(
            f"layer {layer_index}: {n_groups} groups, partition of {count} values "
            f"expects {expected}", at)
    bits_at = reader.offset
    bits = np.frombuffer(reader.take_bytes(n_groups, "group bitwidths"),
                         dtype=np.uint8).astype(np.int64)
    sizes = np.minimum(group_size, count - group_size * np.arange(n_groups))
    over = bits > ENUM_BITWIDTH_LIMIT
    valid = int(over.argmax()) if over.any() else n_groups
    lengths = bits[:valid] * (4 + (sizes[:valid] + 7) // 8)
    ends = reader.offset + np.cumsum(lengths)
    starts = ends - lengths
    complete = int(np.searchsorted(ends, len(reader.data), side="right"))
    # a fault in an earlier, complete group is reported first
    arrays = _unpack_groups(reader.data, starts[:complete], sizes[:complete],
                            bits[:complete], layer_index, group_size)
    if complete < valid:
        # the record is cut short: the reader raises for its first
        # incomplete part, the coordinate block or a base column
        gi, col_bytes = complete, (sizes[complete] + 7) // 8
        reader.offset = int(starts[gi])
        reader.take_bytes(int(bits[gi]) * 4, f"group {gi} coordinate block")
        whole = (len(reader.data) - reader.offset) // col_bytes
        reader.offset += int(whole * col_bytes)
        reader.take_bytes(int(col_bytes), f"group {gi} base column {whole}")
    if valid < n_groups:
        raise ContainerFormatError(
            f"layer {layer_index} group {valid}: bitwidth {bits[valid]} exceeds "
            f"{ENUM_BITWIDTH_LIMIT}", bits_at + valid)
    reader.offset = bits_at + n_groups + int(lengths.sum())
    return arrays


def _unpack_groups(data: bytes, start, size, bits, layer_index: int, group_size: int):
    """Validated (signs, coords, bits) arrays of group records at ``start``.

    Groups are checked in order; the first faulty one raises, for non-zero
    pad bits at the offending column, otherwise at the end of its record.
    """
    k = np.arange(bits.max(initial=0))
    retained = k < bits[:, None]
    col_bytes = (size + 7) // 8
    buf = np.frombuffer(data, dtype=np.uint8)
    coord_at = (start[:, None] + 4 * k)[retained][:, None] + np.arange(4)
    raw = buf[coord_at].view("<f4")[:, 0]
    # checked on the f32 values: the f64 cast warns on a signalling NaN
    finite = np.isfinite(raw)
    coords = np.zeros(retained.shape)
    coords[retained] = np.where(finite, raw, 0)
    col_at = (start + 4 * bits)[:, None] + k * col_bytes[:, None]
    j = np.arange((group_size + 7) // 8)
    in_column = retained[:, :, None] & (j < col_bytes[:, None, None])
    packed = np.zeros(in_column.shape, dtype=np.uint8)
    packed[in_column] = buf[(col_at[:, :, None] + j)[in_column]]
    plane = np.unpackbits(packed, axis=2, bitorder="little").astype(bool)
    in_group = np.arange(plane.shape[2]) < size[:, None, None]

    g, c = np.nonzero(retained)
    _, first = np.unique(row_keys(g, packed[g, c]), return_index=True)
    distinct = g[first]
    pad_bits = (plane & ~in_group).any(axis=2)
    faults = np.stack([
        pad_bits.any(axis=1),
        np.bincount(g[~finite], minlength=len(bits)) > 0,
        ((coords <= 0) & retained).any(axis=1),
        (np.diff(coords, axis=1) > 0).any(axis=1),
        np.bincount(distinct, minlength=len(bits)) < bits,
    ], axis=1)
    if faults.any():
        gi = faults.any(axis=1).argmax()
        check, ci = faults[gi].argmax(), pad_bits[gi].argmax()
        problem = [f"non-zero pad bits in base column {ci}", "non-finite coordinate",
                   "non-positive coordinate", "coordinates not descending",
                   "duplicate base columns"][check]
        end = start[gi] + bits[gi] * (4 + col_bytes[gi])
        raise ContainerFormatError(f"layer {layer_index} group {gi}: {problem}",
                                   int(col_at[gi, ci] if check == 0 else end))
    signs = np.where(in_group & retained[:, :, None], 2 * plane.astype(np.int8) - 1, 0)
    return signs[:, :, :group_size].transpose(0, 2, 1), coords, bits


def deserialize_bytes(data: bytes) -> QuantModel:
    reader = _net.ByteReader(data)
    magic = reader.take_bytes(4, "magic")
    if magic != MAGIC:
        raise ContainerFormatError("bad magic", 0)
    version = reader.take("<H", "version")
    if version != VERSION:
        raise ContainerFormatError(f"unsupported version {version}", 4)
    spec = _net.unpack_spec(reader)
    seed = reader.take("<Q", "meta seed")
    digest = reader.take_bytes(32, "meta digest").hex()
    at = reader.offset
    group_size = reader.take("<H", "group size")
    largest = largest_layer(spec)
    if not 1 <= group_size <= largest:
        raise ContainerFormatError(
            f"group size {group_size} outside 1..{largest} (the largest layer's "
            "parameter count)", at)

    layers = []
    for (layer_index, name), (_, count) in zip(_net.parameterized_layers(spec),
                                               _net.param_counts(spec)[0]):
        reader.at_context(name)
        arrays = _read_layer(reader, layer_index, group_size, count)
        layers.append(QuantLayer(*arrays, group_size, count, layer_index))
    if reader.offset != len(data):
        raise ContainerFormatError("trailing bytes", reader.offset)
    return QuantModel(spec, layers, group_size, ModelMeta(seed, digest))


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
    per layer a u32 group count, one u8 bitwidth per group, and each group's
    f32 coordinates and byte-padded sign columns.
    """
    names = dict(_net.parameterized_layers(model.spec))
    rows = []
    coord_overhead = 0
    container = _FIXED_BYTES + len(_net.pack_spec(model.spec))
    for ql in model.layers:
        sizes, bits = ql.sizes, ql.bits
        base_bits = int(sizes @ bits)
        coord_overhead += int(bits.sum()) * COORD_BITS
        container += 4 + len(bits) + int(bits @ (4 + (sizes + 7) // 8))
        rows.append(LayerMemory(names[ql.layer_index], base_bits / ql.param_count,
                                ql.param_count, base_bits))
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
