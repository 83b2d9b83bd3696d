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

A save streams each block from the array's own buffer into a temporary file
beside the target and moves it into place, so a reader never sees half a
checkpoint; a load reads each block straight into the array it returns.
"""

from __future__ import annotations

import contextlib
import math
import os
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
    """Write ``arrays`` and ``meta`` to ``path`` atomically.

    Every name and meta value is checked before any file is opened. The
    blocks are streamed from their own buffers into a temporary file beside
    ``path`` (named ``.<name>.<pid>.tmp``, so no ``*.ckpt`` glob sees it),
    which then replaces ``path``. A failed save leaves ``path`` as it was and
    no temporary file; an ``OSError`` becomes ``CheckpointError``.
    """
    path = Path(path)
    meta = meta or {}
    for key in meta:
        _check_token("meta key", key)
        if "\n" in meta[key]:
            raise ValueError(f"checkpoint meta value for {key!r} contains a newline")
    for name in arrays:
        _check_token("block name", name)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(HEADER.encode() + b"\n")
            for key in sorted(meta):
                fh.write(f"meta {key} {meta[key]}\n".encode())
            for name in sorted(arrays):
                arr = np.asarray(arrays[name], dtype=_F8)
                # a C-ordered buffer holds the values in the order tobytes gives
                data = arr if arr.flags.c_contiguous else arr.copy()
                dims = "".join(f" {d}" for d in arr.shape)
                fh.write(f"block {name} {arr.ndim}{dims} {zlib.crc32(data):08x}\n".encode())
                fh.write(data)
                fh.write(b"\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        # gone once replaced; what a failure before that left behind
        with contextlib.suppress(OSError):
            tmp.unlink()


def load_checkpoint(path: str | Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The meta and blocks of ``path``; any fault, an ``OSError`` included, is a ``CheckpointError``.

    Each block is read straight into the array returned for it, and its
    checksum is taken on that array.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            return _read_checkpoint(fh, os.fstat(fh.fileno()).st_size)
    except FileNotFoundError:
        raise CheckpointError(f"missing checkpoint {path}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh, size: int) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    first = fh.readline()
    if first.strip() != HEADER.encode():
        found = first.strip()[:60].decode("ascii", "replace") or "<empty file>"
        raise VersionMismatchError(f"expected header {HEADER!r}, found {found!r}")
    if not first.endswith(b"\n"):
        raise TruncatedCheckpointError("checkpoint ends inside a line at byte 0")
    meta: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    pos = len(first)  # where the next line starts
    while line := fh.readline():
        if not line.endswith(b"\n"):
            raise TruncatedCheckpointError(f"checkpoint ends inside a line at byte {pos}")
        try:
            text = line[:-1].decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"unreadable line at byte {pos}") from None
        if text.startswith("meta "):
            parts = text.split(" ", 2)
            if len(parts) != 3:
                raise CheckpointError(f"meta line without a value: {text[:60]!r}")
            meta[parts[1]] = parts[2]
            pos += len(line)
            continue
        if not text.startswith("block "):
            raise CheckpointError(f"unexpected line at byte {pos}: {text[:60]!r}")
        parts = text.split()
        name = parts[1] if len(parts) > 1 else "<unnamed>"
        try:
            ndim = int(parts[2])
            shape = tuple(int(d) for d in parts[3:-1])
            crc = int(parts[-1], 16)
        except (IndexError, ValueError):
            ndim, shape, crc = -1, (), 0
        if ndim < 0 or len(shape) != ndim or min(shape, default=0) < 0:
            raise CheckpointError(f"block {name}: garbled shape declaration {text[:60]!r}")
        pos += len(line)
        nbytes = _F8.itemsize * math.prod(shape)
        if pos + nbytes >= size:
            raise TruncatedCheckpointError(
                f"block {name}: expected {nbytes} value bytes and a newline, {size - pos} bytes left"
            )
        arr = np.empty(shape, dtype=_F8)
        if fh.readinto(arr) != nbytes:
            raise TruncatedCheckpointError(f"block {name}: the file shrank while it was read")
        if zlib.crc32(arr) != crc:
            raise CheckpointError(f"block {name}: checksum mismatch")
        if fh.read(1) != b"\n":
            raise CheckpointError(f"block {name}: no newline after its {nbytes} value bytes")
        arrays[name] = arr.astype(np.float64, copy=False)
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
