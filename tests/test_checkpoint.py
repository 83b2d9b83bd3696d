import struct
import zlib

import numpy as np
import pytest

from atmarl.checkpoint import load_checkpoint, save_checkpoint, take_block
from atmarl.errors import CheckpointError, ShapeMismatchError, TruncatedCheckpointError, VersionMismatchError


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weights": rng.normal(size=(4, 7)) * 1e-3,
        "b.bias": rng.normal(size=9) * 1e6,
        "c.scalarish": np.array([np.pi]),
    }
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, arrays, meta={"mode": "agent"})
    meta, loaded = load_checkpoint(path)
    assert meta == {"mode": "agent"}
    for key, arr in arrays.items():
        assert loaded[key].tobytes() == arr.tobytes(), key
        assert loaded[key].dtype == np.float64 and loaded[key].flags.writeable, key


def test_save_is_deterministic(tmp_path):
    arrays = {"z": np.arange(20, dtype=np.float64) / 3.0, "a": np.ones((2, 2))}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, arrays)
    save_checkpoint(p2, dict(reversed(list(arrays.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_header_is_version_mismatch(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("ATMARL-CKPT v9\nblock a 1 1\n0.0\n")
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_empty_file_is_version_mismatch(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_text("")
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_truncated_block_detected(tmp_path):
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(path, {"w": np.ones((3, 3))})
    whole = path.read_bytes()
    for cut in (1, 8, 9 * 8 + 1):  # the closing newline, the last value, every value
        path.write_bytes(whole[:-cut])
        with pytest.raises(TruncatedCheckpointError, match="block w"):
            load_checkpoint(path)


def test_v1_text_checkpoint_is_version_mismatch(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_text("ATMARL-CKPT v1\nmeta mode agent\nblock w 1 2\n0.5 1\n")
    with pytest.raises(VersionMismatchError, match="ATMARL-CKPT v1"):
        load_checkpoint(path)


def _block(name, values, shape=None):
    """One v2 block: its header line and raw little-endian float64 bytes."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    shape = np.shape(values) if shape is None else shape
    return f"block {name} {len(shape)}{''.join(f' {d}' for d in shape)} {zlib.crc32(raw):08x}\n".encode() + raw + b"\n"


def _flip_value_byte(block):
    body = bytearray(block)
    body[block.index(b"\n") + 3] ^= 0x10
    return bytes(body)


@pytest.mark.parametrize(
    "body, match",
    [
        (_flip_value_byte(_block("w", [0.5, 1.0])), "block w: checksum mismatch"),
        (_block("w", [0.5, 1.0]).replace(b" 1 2 ", b" 1 2x ", 1), "block w: garbled shape"),
        (_block("w", [], shape=(-2,)), "block w: garbled shape"),
        (b"block w\n" + np.float64(0.5).tobytes() + b"\n", "block w: garbled shape"),
        (b"meta mode\n" + _block("w", [0.5]), "meta line without a value"),
    ],
    ids=["value", "shape", "negative-shape", "no-shape", "meta"],
)
def test_garbled_checkpoint_raises_typed_error(tmp_path, body, match):
    path = tmp_path / "garbled.ckpt"
    path.write_bytes(b"ATMARL-CKPT v2\n" + body)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "arrays, meta",
    [
        ({"two words": np.ones(2)}, None),
        ({"": np.ones(2)}, None),
        ({"w": np.ones(2)}, {"run\tid": "1"}),
        ({"w": np.ones(2)}, {"note": "first\nblock w 1 1 00000000"}),
    ],
    ids=["block-name-space", "block-name-empty", "meta-key-tab", "meta-value-newline"],
)
def test_save_rejects_names_that_break_a_header_line(tmp_path, arrays, meta):
    path = tmp_path / "bad.ckpt"
    with pytest.raises(ValueError, match="whitespace|newline"):
        save_checkpoint(path, arrays, meta)
    assert not path.exists()


def test_missing_block_named_in_error(tmp_path):
    path = tmp_path / "ok.ckpt"
    save_checkpoint(path, {"present": np.ones(2)})
    _, arrays = load_checkpoint(path)
    with pytest.raises(ShapeMismatchError, match="absent"):
        take_block(arrays, "absent", (2,))


def test_wrong_shape_named_in_error(tmp_path):
    path = tmp_path / "ok.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 3))})
    _, arrays = load_checkpoint(path)
    with pytest.raises(ShapeMismatchError, match="w"):
        take_block(arrays, "w", (3, 2))


def test_special_values_pinned_text_and_bit_exact(tmp_path):
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0**60])
    path = tmp_path / "specials.ckpt"
    save_checkpoint(path, {"s": specials, "e": np.zeros((0, 2))}, meta={"mode": "agent", "intents": "3"})
    raw = struct.pack("<6d", *specials)
    assert path.read_bytes() == (
        b"ATMARL-CKPT v2\nmeta intents 3\nmeta mode agent\n"
        b"block e 2 0 2 00000000\n\n"
        b"block s 1 6 %08x\n" % zlib.crc32(raw) + raw + b"\n"
    )
    assert [line for line in path.read_bytes().split(b"\n") if line.startswith(b"block")] == [
        b"block e 2 0 2 00000000", b"block s 1 6 %08x" % zlib.crc32(raw)
    ]
    _, loaded = load_checkpoint(path)
    assert loaded["s"].tobytes() == specials.tobytes()
    assert loaded["e"].shape == (0, 2)


def test_nan_payloads_subnormals_and_0d_blocks_round_trip_bit_exact(tmp_path):
    bits = np.array(
        [0x7FF8000000000123, 0xFFF8000000000001, 0x7FF0000000000001, 0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x8000000000000000],
        dtype=np.uint64,
    )
    arrays = {"nan": bits.view(np.float64), "zero_d": np.float64(-0.0), "empty": np.zeros(0)}
    path = tmp_path / "bits.ckpt"
    save_checkpoint(path, arrays)
    _, loaded = load_checkpoint(path)
    assert loaded["nan"].view(np.uint64).tolist() == bits.tolist()
    assert loaded["zero_d"].shape == () and loaded["zero_d"].tobytes() == np.float64(-0.0).tobytes()
    assert loaded["empty"].shape == (0,)


def _per_value_bytes(arrays):
    """The checkpoint bytes with each value packed on its own."""
    out = [b"ATMARL-CKPT v2\n"]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        raw = b"".join(struct.pack("<d", x) for x in arr.ravel().tolist())
        dims = "".join(f" {d}" for d in arr.shape)
        out.append(f"block {name} {arr.ndim}{dims} {zlib.crc32(raw):08x}\n".encode() + raw + b"\n")
    return b"".join(out)


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 15, 16, 23])
def test_block_text_equals_per_value_formatting(tmp_path, size):
    rng = np.random.default_rng(size)
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.0**60, 1e-5, 0.1, 123456789.0]
    values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    values[: min(size, len(specials))] = rng.permutation(specials)[:size]
    arrays = {"v": values, "m": values[: size - size % 4].reshape(-1, 4), "one": np.float64(size / 7.0)}
    path = tmp_path / "text.ckpt"
    save_checkpoint(path, arrays)
    assert path.read_bytes() == _per_value_bytes(arrays)
    _, loaded = load_checkpoint(path)
    for key, arr in arrays.items():
        assert loaded[key].tobytes() == np.asarray(arr).tobytes(), key
