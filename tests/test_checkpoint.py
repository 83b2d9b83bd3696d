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


def _per_value_text(arrays):
    """The checkpoint text with each value formatted on its own."""
    lines = ["ATMARL-CKPT v1"]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        lines.append(f"block {name} {arr.ndim} {' '.join(str(d) for d in arr.shape)}".rstrip())
        flat = arr.ravel().tolist()
        for start in range(0, len(flat), 8):
            lines.append(" ".join(f"{x:.17g}" for x in flat[start : start + 8]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 15, 16, 23])
def test_block_text_equals_per_value_formatting(tmp_path, size):
    rng = np.random.default_rng(size)
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.0**60, 1e-5, 0.1, 123456789.0]
    values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    values[: min(size, len(specials))] = rng.permutation(specials)[:size]
    arrays = {"v": values, "m": values[: size - size % 4].reshape(-1, 4), "one": np.float64(size / 7.0)}
    path = tmp_path / "text.ckpt"
    save_checkpoint(path, arrays)
    assert path.read_text() == _per_value_text(arrays)
    _, loaded = load_checkpoint(path)
    for key, arr in arrays.items():
        assert loaded[key].tobytes() == np.asarray(arr).tobytes(), key
