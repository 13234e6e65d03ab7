"""LEB128-style variable-length integer coding and the one framing rule.

Every codec container and entropy-stream header is written through
:class:`Writer` and parsed through :class:`Reader`, from three field
kinds: ``varint`` (LEB128, so small metadata such as shapes and stream
lengths does not cost a fixed 8 bytes), ``f64`` (a little-endian double)
and ``blob`` (a varint byte length, then the bytes).  Every
:class:`Reader` read raises :class:`EOFError` when its bytes are missing,
so a cut payload fails at its first incomplete field.

The array codecs (:func:`encode_varint_array` / :func:`decode_varint_array`
and their zigzag-signed variants) process a whole NumPy array per call and
emit exactly the bytes of :func:`encode_varint` applied element-wise (of
ZigZag ``(v << 1) ^ (v >> 63)`` first, for the signed ones); the side
channels (regression coefficients, outliers) and the Huffman symbol table
use them.
"""

from __future__ import annotations

import struct
from typing import Iterable, Tuple

import numpy as np

__all__ = [
    "Reader",
    "Writer",
    "encode_varint",
    "varint_size",
    "encode_varint_array",
    "decode_varint_array",
    "encode_signed_varint_array",
    "decode_signed_varint_array",
]


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128 bytes."""

    if value < 0:
        raise ValueError("encode_varint requires a non-negative integer")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


# ----------------------------------------------------------------------
# array codecs (byte-identical to encode_varint per element, no Python loops)
# ----------------------------------------------------------------------
def varint_size(value: int) -> int:
    """LEB128 byte count of one non-negative integer."""

    return max(1, (value.bit_length() + 6) // 7)


def encode_varint_array(values: np.ndarray) -> bytes:
    """LEB128-encode an array of non-negative integers (uint64 range)."""

    v = np.asarray(values)
    if v.size == 0:
        return b""
    if v.dtype.kind not in "iu":
        raise TypeError("encode_varint_array requires an integer array")
    if v.dtype.kind == "i" and v.size and int(v.min()) < 0:
        raise ValueError("encode_varint_array requires non-negative integers")
    v = v.astype(np.uint64).ravel()

    # Bytes per value: ceil(bit_length / 7), at least 1 (<= 10 for uint64).
    nbytes = np.ones(v.size, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += tmp != 0
        tmp >>= np.uint64(7)

    total = int(nbytes.sum())
    starts = np.cumsum(nbytes) - nbytes
    # Position of every output byte within its value's byte group.
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, nbytes)
    groups = np.repeat(v, nbytes)
    chunks = ((groups >> (np.uint64(7) * within.astype(np.uint64))) & np.uint64(0x7F)).astype(
        np.uint8
    )
    is_last = within == np.repeat(nbytes, nbytes) - 1
    return np.where(is_last, chunks, chunks | 0x80).astype(np.uint8).tobytes()


def decode_varint_array(data: bytes, count: int, offset: int = 0) -> Tuple[np.ndarray, int]:
    """Decode ``count`` consecutive LEB128 integers starting at ``offset``.

    Returns ``(values, next_offset)`` with ``values`` as uint64.
    """

    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.empty(0, dtype=np.uint64), offset
    # A LEB128 value is at most 10 bytes, so never scan (or index) past
    # count*10 bytes — callers hand in whole container blobs.
    full = np.frombuffer(data, dtype=np.uint8)
    buf = full[offset : offset + 10 * count]
    terminators = np.flatnonzero((buf & 0x80) == 0)
    if terminators.size < count:
        if full.size > offset + buf.size:
            # More bytes existed beyond the scan window, so some value ran
            # past the 10-byte LEB128 maximum.
            raise ValueError("varint too long")
        raise EOFError("truncated varint")
    consumed = int(terminators[count - 1]) + 1
    buf = buf[:consumed]
    ends = terminators[:count]
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if lengths.max(initial=0) > 10:
        raise ValueError("varint too long")
    within = np.arange(consumed, dtype=np.int64) - np.repeat(starts, lengths)
    chunks = (buf & 0x7F).astype(np.uint64) << (np.uint64(7) * within.astype(np.uint64))
    values = np.add.reduceat(chunks, starts)
    return values, offset + consumed


def encode_signed_varint_array(values: np.ndarray) -> bytes:
    """ZigZag + LEB128 encode an int64 array."""

    v = np.asarray(values, dtype=np.int64).ravel()
    zigzag = (v << 1) ^ (v >> 63)
    return encode_varint_array(zigzag.view(np.uint64))


def decode_signed_varint_array(
    data: bytes, count: int, offset: int = 0
) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`encode_signed_varint_array`; returns int64 values."""

    zigzag, pos = decode_varint_array(data, count, offset)
    values = (zigzag >> np.uint64(1)).view(np.int64) ^ -(zigzag & np.uint64(1)).view(np.int64)
    return values, pos


# ----------------------------------------------------------------------
# the framing cursor
# ----------------------------------------------------------------------
_F64 = struct.Struct("<d")


class Writer(bytearray):
    """A byte buffer that appends framed fields."""

    def varint(self, value: int) -> None:
        self.extend(encode_varint(value))

    def varints(self, values: Iterable[int]) -> None:
        for value in values:
            self.extend(encode_varint(value))

    def f64(self, value: float) -> None:
        self.extend(_F64.pack(value))

    def blob(self, data: bytes) -> None:
        self.extend(encode_varint(len(data)))
        self.extend(data)


class Reader:
    """A cursor over :class:`Writer` fields; a read past the end is ``EOFError``."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def varint(self) -> int:
        data, pos = self.data, self.pos
        result = shift = 0
        while True:
            if pos >= len(data):
                raise EOFError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7
            if shift > 70:
                raise ValueError("varint too long")

    def varints(self, count: int) -> np.ndarray:
        """``count`` varints as a ``uint64`` array (one vectorised read)."""

        values, self.pos = decode_varint_array(self.data, count, self.pos)
        return values

    def signed_varints(self, count: int) -> np.ndarray:
        """``count`` zigzag varints as an ``int64`` array."""

        values, self.pos = decode_signed_varint_array(self.data, count, self.pos)
        return values

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def take(self, size: int) -> bytes:
        end = self.pos + size
        if end > len(self.data):
            raise EOFError(f"truncated payload: {size} bytes needed, {self.remaining} left")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def blob(self) -> bytes:
        return self.take(self.varint())
