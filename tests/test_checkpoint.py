import fnmatch
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from atmarl import checkpoint
from atmarl.checkpoint import load_checkpoint, save_checkpoint, take_block
from atmarl.errors import CheckpointError, ShapeMismatchError, TruncatedCheckpointError, VersionMismatchError

from oracles import whole_file_checkpoint


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


_NAN_BITS = np.array([0x7FF8000000000123, 0xFFF8000000000001, 0x7FF0000000000001], dtype=np.uint64)


@pytest.mark.parametrize(
    "block",
    [
        np.float64(-0.0),
        np.array(2.5),
        np.zeros(0),
        np.zeros((0, 2)),
        np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7.0),
        np.arange(40.0).reshape(5, 8)[::2, 1::3],
        np.arange(6.0).astype(">f8") / 3.0,
        (np.arange(5, dtype=np.float32) / 3).reshape(5, 1),
        np.arange(-3, 3),
        _NAN_BITS.view(np.float64),
    ],
    ids=["0d-scalar", "0d-array", "empty", "empty-2d", "fortran", "strided", "big-endian", "float32", "int", "nan-payloads"],
)
def test_streamed_save_equals_whole_file_oracle(tmp_path, block):
    arrays = {"x": block, "a": np.ones((2, 2))}
    meta = {"mode": "agent", "intents": "3"}
    save_checkpoint(tmp_path / "streamed.ckpt", arrays, meta)
    whole_file_checkpoint(tmp_path / "oracle.ckpt", arrays, meta)
    assert (tmp_path / "streamed.ckpt").read_bytes() == (tmp_path / "oracle.ckpt").read_bytes()
    _, loaded = load_checkpoint(tmp_path / "streamed.ckpt")
    expected = np.asarray(block, dtype=np.float64)
    assert loaded["x"].shape == expected.shape and loaded["x"].tobytes() == expected.tobytes()
    assert loaded["x"].dtype == np.float64 and loaded["x"].flags.writeable and loaded["x"].flags.c_contiguous


def _names(directory):
    """The sorted names of the files and directories in ``directory``."""
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize(
    "arrays, meta",
    [({"fine": np.ones(2), "two words": np.ones(2)}, None), ({"w": np.ones(2)}, {"note": "a\nb"})],
    ids=["block-name", "meta-value"],
)
def test_rejected_save_opens_no_file(tmp_path, arrays, meta):
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "bad.ckpt", arrays, meta)
    assert _names(tmp_path) == []


def test_save_into_a_missing_directory_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        save_checkpoint(tmp_path / "absent" / "x.ckpt", {"w": np.ones(2)})
    assert _names(tmp_path) == []


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    before = path.read_bytes()
    moved = []

    def refuse(src, dst):
        moved.append(src)
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(checkpoint.os, "replace", refuse)
    with pytest.raises(CheckpointError, match="cannot write checkpoint .*Permission denied"):
        save_checkpoint(path, {"w": np.zeros(3)})
    assert path.read_bytes() == before
    assert _names(tmp_path) == ["x.ckpt"]
    # the temporary file sat beside the target under a name no output glob matches
    (tmp,) = moved
    assert tmp.parent == tmp_path
    assert not any(fnmatch.fnmatch(tmp.name, pattern) for pattern in ("*.ckpt", "trace_*", "train_log_*"))


def test_save_onto_a_directory_is_a_checkpoint_error(tmp_path):
    (tmp_path / "x.ckpt").mkdir()
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        save_checkpoint(tmp_path / "x.ckpt", {"w": np.ones(2)})
    assert _names(tmp_path) == ["x.ckpt"] and (tmp_path / "x.ckpt").is_dir()


def test_load_of_a_directory_is_a_checkpoint_error(tmp_path):
    (tmp_path / "x.ckpt").mkdir()
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_header_without_a_newline_is_truncated(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"ATMARL-CKPT v2")
    with pytest.raises(TruncatedCheckpointError, match="at byte 0"):
        load_checkpoint(path)


def _traced_peak(call) -> tuple[int, object]:
    """Bytes ``call`` allocated at its peak beyond what was held before it, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - held, result
    finally:
        tracemalloc.stop()


def test_save_and_load_hold_no_copy_of_the_file(tmp_path):
    # an 8 MB block: the whole-file writer held three copies of it at once
    # (tobytes, the block plus its newline, the joined file), and the reader
    # three (the file, the block's slice, the array)
    block = np.random.default_rng(0).normal(size=1 << 20)
    path = tmp_path / "big.ckpt"
    saved, _ = _traced_peak(lambda: save_checkpoint(path, {"w": block}))
    assert saved < 0.1 * block.nbytes
    loaded, (_, arrays) = _traced_peak(lambda: load_checkpoint(path))
    assert loaded < 1.1 * block.nbytes
    assert arrays["w"].tobytes() == block.tobytes()
