"""Binary file formats: feature files and the named-tensor model container.

Feature file ("SVF1"): magic, little-endian u32 T, u32 D, then T*D
little-endian float32 values row-major.

Model container ("SVM1"): magic, u32 version, u32 tensor count, then per
tensor {u32 name length, name bytes (utf-8), u8 rank, u64 dims...,
float64 little-endian payload}. Tensor names must be unique.

Model naming rule (to_tensors / from_tensors), the one codec of every model
file: a dataclass is its fields in field order, named prefix + field name
and stored by annotation. An array is one tensor, an int or float a rank-0
tensor read back as that type, and a typing.Literal the rank-0 index of its
value among the choices (a layer's activation: 0 linear, 1 sigmoid, 2 tanh,
3 softmax, 4 lengthnorm). A dataclass nests under "<field>.". A list[X] is
its length n_<field>, then element i as "<field>.<i>" (an array) or under
"<field>.<i>." (a dataclass): a network's n_layers and layers.<i>.weight,
system.svm's anchor.ivec_net.layers.<i>.weight. read_container returns a Container,
whose lookup of a missing name is a FormatError naming the file and the
tensor, as are a non-integral count and an out-of-range Literal code, so a
model file of the wrong kind or from another corpus fails as a format error.

Every writer goes through _atomic_open: the bytes land in a temporary file
next to the target, which replaces the target only once it is complete, so
a failed or killed write leaves the previous file (or none) in place.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import secrets
import struct
import typing
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


def read_text(path):
    """Read a utf-8 text file; undecodable bytes are a FormatError naming it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not utf-8 text", offset=exc.start) from None


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


def _feature_header(path, data):
    """(T, D) from the first bytes of a feature file; a bad header is a FormatError."""
    if len(data) < 4:
        raise FormatError(f"{path}: file too short for magic", offset=0)
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}", offset=0)
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header", offset=len(data))
    return struct.unpack_from("<II", data, 4)


def read_feature_shape(path):
    """(T, D) of a feature file from its 12-byte header; the payload is not read."""
    with open(path, "rb") as fh:
        return _feature_header(path, fh.read(12))


def read_features(path):
    """Read a feature file back as float64. Raises FormatError with offsets."""
    data = Path(path).read_bytes()
    t, d = _feature_header(path, data)
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


class Container(dict):
    """{name: float64 tensor} read from path; a missing name is a FormatError."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, name):
        raise FormatError(f"{self.path}: no tensor {name!r}")


def read_container(path):
    """Read a container back into a Container of float64 tensors."""
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
    tensors = Container(path)
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
        try:
            tensors[name] = arr.reshape(dims) if rank > 0 else np.float64(arr[0])
        except ValueError:  # more dims than numpy supports
            raise FormatError(
                f"{path}: tensor {name!r} has unsupported rank {rank}", offset=pos
            ) from None
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes", offset=pos)
    return tensors


def read_scalar(tensors, name, kind):
    """tensors[name] as one kind (int or float); anything else is a FormatError."""
    value = tensors[name]
    if np.ndim(value) != 0 or (kind is int and not float(value).is_integer()):
        where = getattr(tensors, "path", "tensors")
        raise FormatError(f"{where}: tensor {name!r} is not one {kind.__name__}")
    return kind(value)


@functools.cache
def _fields(cls):
    """(name, resolved annotation) of each dataclass field, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _put(tensors, prefix, name, kind, value):
    """Add the tensors of one value annotated kind, named prefix + name."""
    key = prefix + name
    origin = typing.get_origin(kind)
    if origin is list:
        (item,) = typing.get_args(kind)
        tensors[f"{prefix}n_{name}"] = np.float64(len(value))
        for i, element in enumerate(value):
            _put(tensors, f"{key}.", str(i), item, element)
    elif dataclasses.is_dataclass(kind):
        tensors.update(to_tensors(value, f"{key}."))
    elif origin is typing.Literal:
        tensors[key] = np.float64(typing.get_args(kind).index(value))
    elif kind in (int, float):
        tensors[key] = np.float64(value)
    else:
        tensors[key] = value


def _get(tensors, prefix, name, kind):
    """The value annotated kind that _put stored as prefix + name."""
    key = prefix + name
    origin = typing.get_origin(kind)
    if origin is list:
        (item,) = typing.get_args(kind)
        n = read_scalar(tensors, f"{prefix}n_{name}", int)
        return [_get(tensors, f"{key}.", str(i), item) for i in range(n)]
    if dataclasses.is_dataclass(kind):
        return from_tensors(kind, tensors, f"{key}.")
    if origin is typing.Literal:
        choices = typing.get_args(kind)
        code = read_scalar(tensors, key, int)
        if not 0 <= code < len(choices):
            where = getattr(tensors, "path", "tensors")
            raise FormatError(f"{where}: tensor {key!r} holds code {code}, not 0..{len(choices)-1}")
        return choices[code]
    if kind in (int, float):
        return read_scalar(tensors, key, kind)
    return tensors[key]


def to_tensors(model, prefix=""):
    """The named tensors of a dataclass model, by the naming rule in the module docstring."""
    tensors = {}
    for name, kind in _fields(type(model)):
        _put(tensors, prefix, name, kind, getattr(model, name))
    return tensors


def from_tensors(cls, tensors, prefix=""):
    """Rebuild a cls instance from the tensors to_tensors names for it."""
    return cls(**{name: _get(tensors, prefix, name, kind) for name, kind in _fields(cls)})
