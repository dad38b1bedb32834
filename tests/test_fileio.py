import struct

import numpy as np
import pytest

from svpipe import fileio
from svpipe.errors import FormatError


def test_feature_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((37, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "m.svf"
    fileio.write_features(path, frames)
    back = fileio.read_features(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, frames)
    # second write of the read data gives identical bytes
    path2 = tmp_path / "m2.svf"
    fileio.write_features(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_feature_empty_and_bad_magic(tmp_path):
    path = tmp_path / "empty.svf"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        fileio.read_features(path)
    path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        fileio.read_features(path)


def test_feature_truncation_names_byte_counts(tmp_path):
    path = tmp_path / "trunc.svf"
    payload = struct.pack("<4f", 1, 2, 3, 4)
    path.write_bytes(b"SVF1" + struct.pack("<II", 3, 2) + payload)
    with pytest.raises(FormatError) as err:
        fileio.read_features(path)
    assert "36" in str(err.value)  # expected bytes for 3x2 floats
    assert "28" in str(err.value)  # actual file size


def test_container_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "a.weight": rng.standard_normal((3, 4)),
        "a.bias": rng.standard_normal(4),
        "scalar": np.float64(3.25),
        "cube": rng.standard_normal((2, 2, 2)),
    }
    path = tmp_path / "m.svm"
    fileio.write_container(path, tensors)
    back = fileio.read_container(path)
    assert set(back) == set(tensors)
    for name in tensors:
        assert np.array_equal(np.asarray(back[name]), np.asarray(tensors[name]))
    path2 = tmp_path / "m2.svm"
    fileio.write_container(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_container_duplicate_name_rejected(tmp_path):
    path = tmp_path / "dup.svm"
    # hand-build a container with a duplicated tensor name
    name = b"t"
    entry = struct.pack("<I", 1) + name + struct.pack("<B", 0) + struct.pack("<d", 1.0)
    path.write_bytes(b"SVM1" + struct.pack("<II", 1, 2) + entry + entry)
    with pytest.raises(FormatError, match="duplicate"):
        fileio.read_container(path)


def test_container_version_mismatch(tmp_path):
    path = tmp_path / "v9.svm"
    path.write_bytes(b"SVM1" + struct.pack("<II", 9, 0))
    with pytest.raises(FormatError, match="version"):
        fileio.read_container(path)


def test_container_truncation_and_trailing(tmp_path):
    path = tmp_path / "bad.svm"
    name = b"t"
    entry = struct.pack("<I", 1) + name + struct.pack("<B", 1) + struct.pack("<Q", 4)
    path.write_bytes(b"SVM1" + struct.pack("<II", 1, 1) + entry + b"\x00" * 8)
    with pytest.raises(FormatError, match="truncated"):
        fileio.read_container(path)
    good = b"SVM1" + struct.pack("<II", 1, 0)
    path.write_bytes(good + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        fileio.read_container(path)


def test_container_non_utf8_name_is_format_error(tmp_path):
    path = tmp_path / "bad_name.svm"
    name = b"\xff\xfe"
    path.write_bytes(
        b"SVM1" + struct.pack("<II", 1, 1) + struct.pack("<I", len(name)) + name
        + struct.pack("<B", 0) + struct.pack("<d", 1.0)
    )
    with pytest.raises(FormatError) as err:
        fileio.read_container(path)
    assert err.value.offset == 16  # first byte of the name


def test_container_rank_beyond_numpy_is_format_error(tmp_path):
    # an empty tensor of rank 65 passes every size check but no ndarray has
    # that many dims
    path = tmp_path / "deep.svm"
    path.write_bytes(
        b"SVM1" + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"w"
        + struct.pack("<B", 65) + struct.pack("<Q", 0) * 65
    )
    with pytest.raises(FormatError, match="rank 65"):
        fileio.read_container(path)


def test_failed_container_overwrite_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.svm"
    fileio.write_container(path, {"a": 1.0, "b": np.arange(3.0)})
    good = path.read_bytes()
    with pytest.raises(FormatError, match="utf-8"):
        fileio.write_container(path, {"a": 2.0, "\udc80": 3.0})
    with pytest.raises(ValueError):
        fileio.write_container(path, {"a": 2.0, "b": "not a number"})
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["model.svm"]
