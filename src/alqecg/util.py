"""Small shared helpers: hashing, canonical JSON, the integer check of
config fields, and the worker count that caps the threads running the
fixed blocks of the inference pass (``net.run_blocks``), which fp networks
and ``QuantExecutor`` share."""

from __future__ import annotations

import hashlib
import json
import numbers
import os

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


def require_ints(error: type[Exception], **fields) -> None:
    """Raise ``error`` naming the first field that is not an integer. A bool
    or a float with an integral value is not one: JSON configs give both."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding: sorted keys, fixed separators, newline."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
