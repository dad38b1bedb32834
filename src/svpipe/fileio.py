"""Binary file formats: feature files and the named-tensor model container.

Feature file ("SVF1"): magic, little-endian u32 T, u32 D, then T*D
little-endian float32 values row-major.

Model container ("SVM1"): magic, u32 version, u32 tensor count, then per
tensor {u32 name length, name bytes (utf-8), u8 rank, u64 dims...,
float64 little-endian payload}. Tensor names must be unique.

Every writer goes through _atomic_open: the bytes land in a temporary file
next to the target, which replaces the target only once it is complete, so
a failed or killed write leaves the previous file (or none) in place.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

FEATURE_MAGIC = b"SVF1"
CONTAINER_MAGIC = b"SVM1"
CONTAINER_VERSION = 1

_U32_MAX = 2**32 - 1


@contextlib.contextmanager
def _atomic_open(path):
    """Binary file handle whose contents replace path only on a clean exit."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text):
    """Atomically write a utf-8 text file."""
    with _atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def write_features(path, frames):
    """Write a (T, D) matrix as float32; values are truncated to f32."""
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise FormatError("features must be a (T, D) matrix")
    t, d = frames.shape
    if t > _U32_MAX or d > _U32_MAX:
        raise FormatError("feature dimensions overflow the u32 header")
    with _atomic_open(path) as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", t, d))
        fh.write(np.ascontiguousarray(frames, dtype="<f4").tobytes())


def read_features(path):
    """Read a feature file back as float64. Raises FormatError with offsets."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FormatError(f"{path}: file too short for magic", offset=0)
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}", offset=0)
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header", offset=len(data))
    t, d = struct.unpack_from("<II", data, 4)
    expected = 12 + 4 * t * d
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, expected {expected} bytes "
            f"for {t}x{d} floats but file has {len(data)}",
            offset=min(len(data), expected),
        )
    payload = np.frombuffer(data, dtype="<f4", count=t * d, offset=12)
    return payload.reshape(t, d).astype(np.float64)


def write_container(path, tensors):
    """Write named float64 tensors; names must be unique, non-empty utf-8."""
    items = []
    seen = set()
    for name, tensor in tensors.items():
        if not name:
            raise FormatError("empty tensor name")
        if name in seen:
            raise FormatError(f"duplicate tensor name {name!r}")
        seen.add(name)
        try:
            raw = name.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"tensor name {name!r} is not encodable as utf-8") from None
        items.append((name, raw, tensor))
    with _atomic_open(path) as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<II", CONTAINER_VERSION, len(items)))
        for name, raw, tensor in items:
            arr = np.asarray(tensor, dtype=np.float64)
            if arr.ndim > 255:
                raise FormatError(f"{name}: rank {arr.ndim} exceeds u8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path):
    """Read a container back into {name: float64 ndarray}."""
    data = Path(path).read_bytes()
    pos = 0

    def need(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"{path}: truncated while reading {what}", offset=pos)
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    magic = need(4, "magic")
    if magic != CONTAINER_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
    version, count = struct.unpack("<II", need(8, "header"))
    if version != CONTAINER_VERSION:
        raise FormatError(
            f"{path}: unsupported container version {version}", offset=4
        )
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", need(4, "name length"))
        try:
            name = need(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            offset = pos - name_len
            raise FormatError(f"{path}: tensor name is not utf-8", offset=offset) from None
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}", offset=pos)
        (rank,) = struct.unpack("<B", need(1, "rank"))
        dims = []
        for _ in range(rank):
            (dim,) = struct.unpack("<Q", need(8, "dims"))
            dims.append(dim)
        n_values = 1
        for dim in dims:
            n_values *= dim
        payload = need(8 * n_values, f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        tensors[name] = arr.reshape(dims) if rank > 0 else np.float64(arr[0])
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes", offset=pos)
    return tensors
