import numpy as np
import pytest

from atmarl.checkpoint import load_checkpoint, save_checkpoint, take_block
from atmarl.errors import ShapeMismatchError, TruncatedCheckpointError, VersionMismatchError


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
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(TruncatedCheckpointError):
        load_checkpoint(path)


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
    save_checkpoint(path, {"s": specials})
    assert path.read_text() == (
        "ATMARL-CKPT v1\nblock s 1 6\n-0 inf -inf nan 4.9406564584124654e-324 1.152921504606847e+18\n"
    )
    _, loaded = load_checkpoint(path)
    assert loaded["s"].tobytes() == specials.tobytes()
