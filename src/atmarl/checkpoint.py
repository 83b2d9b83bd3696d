"""Versioned binary checkpoints (``ATMARL-CKPT v2``).

Layout::

    ATMARL-CKPT v2\\n
    meta <key> <value>\\n
    ...
    block <name> <ndim> <dim0> <dim1> ... <crc32>\\n
    <prod(dims) little-endian float64, raw>\\n
    ...

The header, meta and block lines are text; each block line is followed by
the block's raw ``'<f8'`` bytes and a newline, so ``grep -a '^block' x.ckpt``
lists a checkpoint's blocks. ``<crc32>`` is ``zlib.crc32`` of the raw bytes in
eight lowercase hex digits. Values round-trip float64 bit for bit (signed
zeros, infinities, NaN payloads, subnormals). Block names and meta keys are
written in sorted order, so identical contents serialize to identical bytes.
"""

from __future__ import annotations

import math
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointError,
    ShapeMismatchError,
    TruncatedCheckpointError,
    VersionMismatchError,
)

HEADER = "ATMARL-CKPT v2"
_F8 = np.dtype("<f8")


def _check_token(kind: str, token: str):
    # a name with whitespace would shift every field after it on its header line
    if token.split() != [token]:
        raise ValueError(f"checkpoint {kind} {token!r} is empty or contains whitespace")


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict[str, str] | None = None):
    meta = meta or {}
    parts = [HEADER.encode() + b"\n"]
    for key in sorted(meta):
        _check_token("meta key", key)
        if "\n" in meta[key]:
            raise ValueError(f"checkpoint meta value for {key!r} contains a newline")
        parts.append(f"meta {key} {meta[key]}\n".encode())
    for name in sorted(arrays):
        _check_token("block name", name)
        arr = np.asarray(arrays[name], dtype=_F8)
        raw = arr.tobytes()
        dims = "".join(f" {d}" for d in arr.shape)
        parts.append(f"block {name} {arr.ndim}{dims} {zlib.crc32(raw):08x}\n".encode())
        parts.append(raw + b"\n")
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path}")
    data = path.read_bytes()
    end = data.find(b"\n")
    first = data[: end if end >= 0 else len(data)].strip()
    if first != HEADER.encode():
        found = first[:60].decode("ascii", "replace") or "<empty file>"
        raise VersionMismatchError(f"expected header {HEADER!r}, found {found!r}")
    meta: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    pos = end + 1
    while pos < len(data):
        end = data.find(b"\n", pos)
        if end < 0:
            raise TruncatedCheckpointError(f"checkpoint ends inside a line at byte {pos}")
        try:
            line = data[pos:end].decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"unreadable line at byte {pos}") from None
        if line.startswith("meta "):
            parts = line.split(" ", 2)
            if len(parts) != 3:
                raise CheckpointError(f"meta line without a value: {line[:60]!r}")
            meta[parts[1]] = parts[2]
            pos = end + 1
            continue
        if not line.startswith("block "):
            raise CheckpointError(f"unexpected line at byte {pos}: {line[:60]!r}")
        parts = line.split()
        name = parts[1] if len(parts) > 1 else "<unnamed>"
        try:
            ndim = int(parts[2])
            shape = tuple(int(d) for d in parts[3:-1])
            crc = int(parts[-1], 16)
        except (IndexError, ValueError):
            ndim, shape, crc = -1, (), 0
        if ndim < 0 or len(shape) != ndim or min(shape, default=0) < 0:
            raise CheckpointError(f"block {name}: garbled shape declaration {line[:60]!r}")
        pos = end + 1
        nbytes = _F8.itemsize * math.prod(shape)
        if pos + nbytes >= len(data):
            raise TruncatedCheckpointError(
                f"block {name}: expected {nbytes} value bytes and a newline, {len(data) - pos} bytes left"
            )
        raw = data[pos : pos + nbytes]
        if zlib.crc32(raw) != crc:
            raise CheckpointError(f"block {name}: checksum mismatch")
        if data[pos + nbytes] != ord("\n"):
            raise CheckpointError(f"block {name}: no newline after its {nbytes} value bytes")
        arrays[name] = np.frombuffer(raw, dtype=_F8).astype(np.float64).reshape(shape)
        pos += nbytes + 1
    return meta, arrays


def take_block(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Fetch a block by name, enforcing its expected shape."""
    if name not in arrays:
        raise ShapeMismatchError(f"missing parameter block {name!r}")
    arr = arrays[name]
    if arr.shape != shape:
        raise ShapeMismatchError(f"block {name!r} has shape {arr.shape}, expected {shape}")
    return arr
