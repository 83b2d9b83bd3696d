"""Versioned structured-text checkpoints.

Layout::

    ATMARL-CKPT v1
    meta <key> <value>
    ...
    block <name> <ndim> <dim0> <dim1> ...
    <numbers, 8 per line, printed with 17 significant digits>
    ...

Values round-trip float64 bit-exactly at the printed precision. Block and
meta keys are written in sorted order so identical contents serialize to
identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import (
    CheckpointError,
    ShapeMismatchError,
    TruncatedCheckpointError,
    VersionMismatchError,
)

HEADER = "ATMARL-CKPT v1"
_PER_LINE = 8
_LINE = " ".join(["%.17g"] * _PER_LINE)


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict[str, str] | None = None):
    lines = [HEADER]
    for key in sorted((meta or {})):
        lines.append(f"meta {key} {(meta or {})[key]}")
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"block {name} {arr.ndim} {dims}".rstrip())
        # one % over the whole block: lines of _PER_LINE values, the last one shorter
        flat = arr.ravel().tolist()
        full, rest = divmod(len(flat), _PER_LINE)
        block = [_LINE] * full + ([" ".join(["%.17g"] * rest)] if rest else [])
        if block:
            lines.append("\n".join(block) % tuple(flat))
    Path(path).write_text("\n".join(lines) + "\n")


def load_checkpoint(path: str | Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path}")
    text = path.read_text().splitlines()
    if not text or text[0].strip() != HEADER:
        found = text[0].strip() if text else "<empty file>"
        raise VersionMismatchError(f"expected header {HEADER!r}, found {found!r}")
    meta: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(text):
        line = text[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("meta "):
            parts = line.split(" ", 2)
            if len(parts) != 3:
                raise CheckpointError(f"meta line without a value: {line[:60]!r}")
            meta[parts[1]] = parts[2]
            continue
        if not line.startswith("block "):
            raise TruncatedCheckpointError(f"unexpected line in checkpoint: {line[:60]!r}")
        parts = line.split()
        name = parts[1]
        try:
            ndim = int(parts[2])
            shape = tuple(int(d) for d in parts[3 : 3 + ndim])
        except (IndexError, ValueError):
            ndim, shape = -1, ()
        if ndim < 0 or min(shape, default=0) < 0:
            raise CheckpointError(f"block {name}: garbled shape declaration {line[:60]!r}")
        if len(shape) != ndim:
            raise TruncatedCheckpointError(f"block {name}: incomplete shape declaration")
        count = int(np.prod(shape)) if shape else 1
        values: list[float] = []
        while len(values) < count:
            if i >= len(text):
                raise TruncatedCheckpointError(
                    f"block {name}: expected {count} values, got {len(values)}"
                )
            try:
                values.extend(float(tok) for tok in text[i].split())
            except ValueError as exc:
                raise CheckpointError(f"block {name}: garbled value on line {i + 1}: {exc}") from None
            i += 1
        if len(values) != count:
            raise TruncatedCheckpointError(
                f"block {name}: expected {count} values, got {len(values)}"
            )
        arrays[name] = np.array(values, dtype=np.float64).reshape(shape)
    return meta, arrays


def take_block(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Fetch a block by name, enforcing its expected shape."""
    if name not in arrays:
        raise ShapeMismatchError(f"missing parameter block {name!r}")
    arr = arrays[name]
    if arr.shape != shape:
        raise ShapeMismatchError(f"block {name!r} has shape {arr.shape}, expected {shape}")
    return arr
