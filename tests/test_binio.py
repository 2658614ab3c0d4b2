"""Binary envelope and primitive serialization round-trips."""

import hashlib
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecr.binio import (
    HEADER_LEN,
    ByteReader,
    ByteWriter,
    FileFormatError,
    atomic_write_bytes,
    read_envelope,
    write_envelope,
)


def test_envelope_round_trip(tmp_path):
    path = str(tmp_path / "x.bin")
    write_envelope(path, b"ECRT", 1, [b"hello ", b"payload"])
    assert read_envelope(path, b"ECRT", 1) == b"hello payload"


def test_envelope_read_from_a_pipe(tmp_path):
    # a pipe reports size 0, so its size cannot tell the reader what to read
    path = str(tmp_path / "x.bin")
    write_envelope(path, b"ECRT", 1, [b"hello ", b"payload"])
    with open(path, "rb") as fh:
        blob = fh.read()
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as out:
            out.write(blob)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    assert read_envelope(fifo, b"ECRT", 1) == b"hello payload"
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_envelope_layout(tmp_path):
    path = str(tmp_path / "x.bin")
    payload = b"abc123"
    write_envelope(path, b"ECRT", 7, [payload])
    raw = open(path, "rb").read()
    assert raw[:4] == b"ECRT"
    assert int.from_bytes(raw[4:8], "little") == 7
    assert int.from_bytes(raw[8:16], "little") == len(payload)
    assert raw[16:48] == hashlib.sha256(payload).digest()
    assert raw[48:] == payload
    assert HEADER_LEN == 48


def test_envelope_wrong_magic(tmp_path):
    path = str(tmp_path / "x.bin")
    write_envelope(path, b"ECRT", 1, [b"data"])
    with pytest.raises(FileFormatError, match="magic"):
        read_envelope(path, b"ECRA", 1)


def test_envelope_wrong_version(tmp_path):
    path = str(tmp_path / "x.bin")
    write_envelope(path, b"ECRT", 2, [b"data"])
    with pytest.raises(FileFormatError, match="version"):
        read_envelope(path, b"ECRT", 1)


def test_envelope_truncated(tmp_path):
    path = str(tmp_path / "x.bin")
    write_envelope(path, b"ECRT", 1, [b"data" * 10])
    raw = open(path, "rb").read()
    atomic_write_bytes(path, raw[:-3])
    with pytest.raises(FileFormatError, match="truncated"):
        read_envelope(path, b"ECRT", 1)


def test_envelope_corrupted_payload(tmp_path):
    path = str(tmp_path / "x.bin")
    write_envelope(path, b"ECRT", 1, [b"data" * 10])
    raw = bytearray(open(path, "rb").read())
    raw[-1] ^= 0xFF
    atomic_write_bytes(path, bytes(raw))
    with pytest.raises(FileFormatError, match="corrupted"):
        read_envelope(path, b"ECRT", 1)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"xyz")
    assert os.listdir(tmp_path) == ["out.bin"]


def _written(tmp_path_factory, w: ByteWriter) -> ByteReader:
    """A reader over the payload of ``w`` as written to and read from an
    envelope."""
    path = str(tmp_path_factory.mktemp("w") / "w.bin")
    write_envelope(path, b"ECRT", 1, w.parts)
    return ByteReader(read_envelope(path, b"ECRT", 1))


@given(
    u32=st.integers(0, 2**32 - 1),
    u64=st.integers(0, 2**64 - 1),
    i64=st.integers(-(2**63), 2**63 - 1),
    text=st.text(max_size=50),
    texts=st.lists(st.text(max_size=10), max_size=8),
)
def test_scalar_round_trip(tmp_path_factory, u32, u64, i64, text, texts):
    w = ByteWriter()
    w.u32(u32)
    w.u64(u64)
    w.i64(i64)
    w.text(text)
    w.text_list(texts)
    r = _written(tmp_path_factory, w)
    assert r.u32() == u32
    assert r.u64() == u64
    assert r.i64() == i64
    assert r.text() == text
    assert r.text_list() == texts
    r.done()


def test_array_round_trip(tmp_path_factory):
    rng = np.random.default_rng(0)
    for arr in (
        rng.normal(size=(3, 4)),
        rng.integers(-5, 5, size=(2, 3, 2)).astype(np.int32),
        np.zeros((0, 7)),
        np.zeros(0, dtype=np.int32),
    ):
        # a lead text of 0..7 bytes puts the array at every offset mod 8
        for lead in range(8):
            w = ByteWriter()
            w.text("x" * lead)
            w.array(arr, arr.dtype)
            r = _written(tmp_path_factory, w)
            assert r.text() == "x" * lead
            out = r.array(arr.dtype)
            assert out.shape == arr.shape
            assert np.array_equal(out, arr)
            assert out.flags.aligned and out.flags.writeable


def _reference_bytes(kind: str, value) -> bytes:
    """One field as bytes, written out field by field from the layout in
    docs/FORMATS.md: the oracle for the writer's one-copy assembly."""
    if kind in ("u32", "u64", "i64"):
        return struct.pack({"u32": "<I", "u64": "<Q", "i64": "<q"}[kind], value)
    if kind == "text":
        raw = value.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw
    if kind == "text_list":
        out = struct.pack("<I", len(value))
        for v in value:
            out += _reference_bytes("text", v)
        return out
    arr, dtype = value
    data = np.asarray(arr).astype(np.dtype(dtype).newbyteorder("<"))
    head = struct.pack("<I", data.ndim) + b"".join(struct.pack("<Q", dim) for dim in data.shape)
    return head + data.tobytes(order="C")


_ARRAY_FORMS = ("plain", "strided", "transposed", "big_endian", "float64_to_float32")


_VALUES = {
    "u32": st.integers(0, 2**32 - 1),
    "u64": st.integers(0, 2**64 - 1),
    "i64": st.integers(-(2**63), 2**63 - 1),
    "text": st.text(max_size=12),
    "text_list": st.lists(st.text(max_size=6), max_size=5),
}


@st.composite
def _fields(draw):
    kind = draw(st.sampled_from([*_VALUES, "array"]))
    if kind != "array":
        return kind, draw(_VALUES[kind])
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
    form = draw(st.sampled_from(_ARRAY_FORMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    arr = rng.standard_normal(shape)
    dtype = "float64"
    if form == "strided":
        arr = rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    elif form == "transposed":
        arr = arr.T
    elif form == "big_endian":
        arr = arr.astype(">f4")
        dtype = "float32"
    elif form == "float64_to_float32":
        dtype = "float32"
    if draw(st.booleans()):
        arr, dtype = (arr * 100).astype(np.int64), "int32"
    return kind, (arr, dtype)


@given(fields=st.lists(_fields(), max_size=8))
def test_envelope_bytes_match_fields_joined(tmp_path_factory, fields):
    w = ByteWriter()
    for kind, value in fields:
        if kind == "array":
            w.array(*value)
        else:
            getattr(w, kind)(value)
    path = str(tmp_path_factory.mktemp("env") / "x.bin")
    write_envelope(path, b"ECRT", 3, w.parts)
    payload = b"".join(_reference_bytes(kind, value) for kind, value in fields)
    header = b"ECRT" + struct.pack("<IQ", 3, len(payload)) + hashlib.sha256(payload).digest()
    with open(path, "rb") as fh:
        assert fh.read() == header + payload


def test_reader_bounds_checked(tmp_path_factory):
    w = ByteWriter()
    w.u32(5)
    r = _written(tmp_path_factory, w)
    r.u32()
    with pytest.raises(FileFormatError):
        r.u64()


def test_reader_done_rejects_trailing(tmp_path_factory):
    w = ByteWriter()
    w.u32(5)
    w.u32(6)
    r = _written(tmp_path_factory, w)
    r.u32()
    with pytest.raises(FileFormatError, match="trailing"):
        r.done()


def test_text_list_round_trips_ten_thousand_ids(tmp_path):
    ids = [f"d{i:06d}:{('en', 'zh', 'hi')[i % 3]}" for i in range(10_000)]
    ids[7] = ""
    ids[8] = "\u4e2d\u6587 \u0939\u093f\u0928\u094d\u0926\u0940"
    w = ByteWriter()
    w.u64(len(ids))
    w.text_list(ids)
    # the table is one part, not two per id
    assert len(w.parts) == 2
    path = str(tmp_path / "ids.bin")
    write_envelope(path, b"ECRT", 1, w.parts)
    raw = open(path, "rb").read()[HEADER_LEN:]
    # the layout: a u32 count, then a u32 byte length before each text
    assert raw[8:16] == (10_000).to_bytes(4, "little") + (10).to_bytes(4, "little")
    r = ByteReader(read_envelope(path, b"ECRT", 1))
    assert r.u64() == len(ids)
    assert r.text_list() == ids
    r.done()


def test_truncated_id_table_raises_format_error(tmp_path):
    w = ByteWriter()
    w.text_list([f"d{i:06d}" for i in range(10_000)])
    (full,) = w.parts
    for cut in (1, 3, 7, len(full) // 2):
        # a well-formed envelope around a payload that ends inside the table
        path = str(tmp_path / f"cut{cut}.bin")
        write_envelope(path, b"ECRT", 1, [full[:-cut]])
        with pytest.raises(FileFormatError, match="ended early"):
            ByteReader(read_envelope(path, b"ECRT", 1)).text_list()
