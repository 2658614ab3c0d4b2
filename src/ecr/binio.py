"""Shared binary file envelope: magic, version, length, checksum, payload.

All persisted artifacts (embedding matrices, anchor sets, PCA models,
vector indices) use the same envelope so corruption and version drift are
detected uniformly.  Layout, all little-endian:

    bytes 0..3    magic (4 ASCII bytes, format-specific)
    bytes 4..7    format version (u32)
    bytes 8..15   payload length in bytes (u64)
    bytes 16..47  SHA-256 of the payload
    bytes 48..    payload

Writes are atomic (temp file in the target directory + rename).
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from typing import Sequence

import numpy as np

HEADER_LEN = 4 + 4 + 8 + 32


class FileFormatError(ValueError):
    """Raised on bad magic, version mismatch, truncation, or checksum failure."""


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_envelope(path: str, magic: bytes, version: int, payload: bytes) -> None:
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    header = magic + struct.pack("<IQ", version, len(payload))
    header += hashlib.sha256(payload).digest()
    atomic_write_bytes(path, header + payload)


def read_envelope(path: str, magic: bytes, version: int) -> bytes:
    """Read and verify an envelope, returning the payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER_LEN:
        raise FileFormatError(f"{path}: file shorter than envelope header")
    if blob[:4] != magic:
        raise FileFormatError(
            f"{path}: bad magic {blob[:4]!r}, expected {magic!r}"
        )
    got_version, length = struct.unpack("<IQ", blob[4:16])
    if got_version != version:
        raise FileFormatError(
            f"{path}: format version {got_version}, expected {version}"
        )
    digest = blob[16:48]
    payload = blob[48:]
    if len(payload) != length:
        raise FileFormatError(
            f"{path}: checksum error, payload truncated "
            f"({len(payload)} bytes, header declares {length})"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise FileFormatError(f"{path}: checksum error, payload corrupted")
    return payload


class ByteWriter:
    """Append-only builder for envelope payloads."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def i64(self, value: int) -> None:
        self._parts.append(struct.pack("<q", value))

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self._parts.append(raw)

    def text_list(self, values: Sequence[str]) -> None:
        self.u32(len(values))
        for v in values:
            self.text(v)

    def array(self, arr: np.ndarray, dtype: str) -> None:
        """Write array shape then raw little-endian data of ``dtype``."""
        data = np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<"))
        self.u32(data.ndim)
        for dim in data.shape:
            self.u64(dim)
        self._parts.append(data.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Bounds-checked reader matching :class:`ByteWriter`."""

    def __init__(self, payload: bytes) -> None:
        self._buf = payload
        self._pos = 0

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            raise FileFormatError("payload ended early while decoding")
        chunk = self._buf[self._pos : end]
        self._pos = end
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def text(self) -> str:
        return self._take(self.u32()).decode("utf-8")

    def text_list(self) -> list[str]:
        return [self.text() for _ in range(self.u32())]

    def array(self, dtype: str) -> np.ndarray:
        ndim = self.u32()
        shape = tuple(self.u64() for _ in range(ndim))
        dt = np.dtype(dtype).newbyteorder("<")
        count = int(np.prod(shape)) if shape else 1
        raw = self._take(count * dt.itemsize)
        return np.frombuffer(raw, dtype=dt).reshape(shape).astype(dtype)

    def done(self) -> None:
        """Assert the payload was consumed exactly."""
        if self._pos != len(self._buf):
            raise FileFormatError(
                f"payload has {len(self._buf) - self._pos} trailing bytes"
            )
