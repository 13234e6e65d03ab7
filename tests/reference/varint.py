"""Scalar LEB128 and ZigZag varints, one integer at a time.

The program writes varints through ``Writer`` and the array codecs of
:mod:`repro.encoding.varint`; the tests compare those bytes with these.
"""

from __future__ import annotations

from typing import Tuple

from repro.encoding.varint import Reader, encode_varint


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """``(value, next offset)`` of the LEB128 integer at ``offset``."""

    reader = Reader(data)
    reader.pos = offset
    return reader.varint(), reader.pos


def encode_signed_varint(value: int) -> bytes:
    """ZigZag-encode a signed integer, then LEB128 it."""

    return encode_varint((value << 1) if value >= 0 else ((-value) << 1) - 1)


def decode_signed_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Inverse of :func:`encode_signed_varint`."""

    zigzag, pos = decode_varint(data, offset)
    return (-((zigzag + 1) >> 1) if zigzag & 1 else zigzag >> 1), pos
