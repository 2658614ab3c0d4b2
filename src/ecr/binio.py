"""Shared binary file envelope: magic, version, length, checksum, payload.

All persisted artifacts (embedding matrices, anchor sets, PCA models,
vector indices) use the same envelope so corruption and version drift are
detected uniformly.  Layout, all little-endian:

    bytes 0..3    magic (4 ASCII bytes, format-specific)
    bytes 4..7    format version (u32)
    bytes 8..15   payload length in bytes (u64)
    bytes 16..47  SHA-256 of the payload
    bytes 48..    payload

A writer hands over the payload as a list of parts, and the header and
the parts are copied once, into one buffer that is hashed and written, so
that a write holds about one payload's bytes beyond what the caller
holds.  Writes are atomic (temp file in the target directory + rename).

A read fills one buffer with the whole file, and the arrays decoded from
it are views into that buffer, so that a load holds about the file's
bytes; only an array at an offset its dtype cannot be aligned to is
copied.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from typing import Sequence

import numpy as np

HEADER_LEN = 4 + 4 + 8 + 32

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


class FileFormatError(ValueError):
    """Raised on bad magic, version mismatch, truncation, or checksum failure."""


def atomic_write_bytes(path: str, blob: bytes | bytearray) -> None:
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


def write_envelope(
    path: str, magic: bytes, version: int, parts: Sequence[bytes | np.ndarray]
) -> None:
    """Write the envelope of the payload that is ``parts`` joined.

    Each part is ``bytes`` or a 1-d ``uint8`` array, as :class:`ByteWriter`
    makes them.
    """
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    length = sum(len(part) for part in parts)
    blob = bytearray(HEADER_LEN + length)
    view = memoryview(blob)
    pos = HEADER_LEN
    for part in parts:
        view[pos : pos + len(part)] = part
        pos += len(part)
    view[:16] = magic + struct.pack("<IQ", version, length)
    view[16:HEADER_LEN] = hashlib.sha256(view[HEADER_LEN:]).digest()
    atomic_write_bytes(path, blob)


def read_envelope(path: str, magic: bytes, version: int) -> memoryview:
    """Read and verify an envelope, returning a view of the payload in the
    one writable buffer the file was read into, so that the payload is
    never copied."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob) :]
        # a pipe reports size 0, so read what the size did not count
        blob += fh.read()
    if len(blob) < HEADER_LEN:
        raise FileFormatError(f"{path}: file shorter than envelope header")
    if blob[:4] != magic:
        raise FileFormatError(
            f"{path}: bad magic {bytes(blob[:4])!r}, expected {magic!r}"
        )
    got_version, length = struct.unpack("<IQ", blob[4:16])
    if got_version != version:
        raise FileFormatError(
            f"{path}: format version {got_version}, expected {version}"
        )
    digest = blob[16:HEADER_LEN]
    payload = memoryview(blob)[HEADER_LEN:]
    if len(payload) != length:
        raise FileFormatError(
            f"{path}: checksum error, payload truncated "
            f"({len(payload)} bytes, header declares {length})"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise FileFormatError(f"{path}: checksum error, payload corrupted")
    return payload


class ByteWriter:
    """Append-only builder for envelope payloads.

    ``parts`` is the payload in order: ``bytes``, or a ``uint8`` view of
    an array's little-endian data, which is not copied here.
    """

    def __init__(self) -> None:
        self.parts: list[bytes | np.ndarray] = []

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self.parts.append(_U64.pack(value))

    def i64(self, value: int) -> None:
        self.parts.append(_I64.pack(value))

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self.parts.append(raw)

    def text_list(self, values: Sequence[str]) -> None:
        """A u32 count, then each text as a u32 byte length and its UTF-8."""
        pack = _U32.pack
        parts = [pack(len(values))]
        for v in values:
            raw = v.encode("utf-8")
            parts += (pack(len(raw)), raw)
        # one part for the whole table, so that the envelope copies it in
        # one step rather than two per text
        self.parts.append(b"".join(parts))

    def array(self, arr: np.ndarray, dtype: str) -> None:
        """Write array shape then raw little-endian data of ``dtype``."""
        data = np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<"))
        self.u32(data.ndim)
        for dim in data.shape:
            self.u64(dim)
        self.parts.append(data.reshape(-1).view(np.uint8))


class ByteReader:
    """Bounds-checked reader matching :class:`ByteWriter`.

    It reads through a memoryview: a field is decoded in place, and
    :meth:`array` returns a view into the payload's buffer, which the array
    keeps alive.
    """

    def __init__(self, payload: bytes | memoryview) -> None:
        self._buf = memoryview(payload)
        self._pos = 0

    def _take(self, n: int) -> memoryview:
        end = self._pos + n
        if end > len(self._buf):
            raise FileFormatError("payload ended early while decoding")
        chunk = self._buf[self._pos : end]
        self._pos = end
        return chunk

    def _unpack(self, fmt: struct.Struct) -> int:
        pos = self._pos
        if pos + fmt.size > len(self._buf):
            raise FileFormatError("payload ended early while decoding")
        self._pos = pos + fmt.size
        return fmt.unpack_from(self._buf, pos)[0]

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def i64(self) -> int:
        return self._unpack(_I64)

    def text(self) -> str:
        return str(self._take(self.u32()), "utf-8")

    def text_list(self) -> list[str]:
        count = self.u32()
        buf, pos, size = self._buf, self._pos, len(self._buf)
        unpack = _U32.unpack_from
        out = []
        for _ in range(count):
            if pos + 4 > size:
                raise FileFormatError("payload ended early while decoding")
            end = pos + 4 + unpack(buf, pos)[0]
            if end > size:
                raise FileFormatError("payload ended early while decoding")
            out.append(str(buf[pos + 4 : end], "utf-8"))
            pos = end
        self._pos = pos
        return out

    def array(self, dtype: str) -> np.ndarray:
        ndim = self.u32()
        shape = tuple(self.u64() for _ in range(ndim))
        dt = np.dtype(dtype).newbyteorder("<")
        raw = self._take(math.prod(shape) * dt.itemsize)
        arr = np.frombuffer(raw, dtype=dt).reshape(shape).astype(dtype, copy=False)
        # a field at an offset its dtype cannot be aligned to is copied
        return np.require(arr, requirements="A")

    def done(self) -> None:
        """Assert the payload was consumed exactly."""
        if self._pos != len(self._buf):
            raise FileFormatError(
                f"payload has {len(self._buf) - self._pos} trailing bytes"
            )
