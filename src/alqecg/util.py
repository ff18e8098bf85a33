"""Small shared helpers: hashing, canonical JSON, worker-count control."""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError


def worker_count() -> int:
    """Worker cap from ALQ_THREADS (unset or 0 means one per CPU)."""
    raw = os.environ.get("ALQ_THREADS", "0").strip()
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"ALQ_THREADS must be an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError("ALQ_THREADS must be >= 0")
    return value if value > 0 else (os.cpu_count() or 1)


def chunked_rows(fn, items, min_chunk: int = 16) -> np.ndarray:
    """Apply ``fn`` (list -> row matrix) over chunks, preserving order.

    Rows keep their bytes across chunkings only where ``fn``'s rows keep
    them across batch sizes. ``QuantExecutor.probs`` runs fixed blocks, so
    its rows are bitwise equal at any worker count. fp64 matmuls may round
    differently at another batch size (up to about 5e-18 per logit on the
    default network), so fp probabilities may move in the last bit.
    Threads only help when numpy releases the GIL.
    """
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= min_chunk:
        return fn(items)
    size = max(min_chunk, (len(items) + workers - 1) // workers)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    if len(chunks) == 1:
        return fn(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(fn, chunks)), axis=0)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding: sorted keys, fixed separators, newline."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
