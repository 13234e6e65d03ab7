"""Tests for repro.encoding.varint."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.varint import (
    Reader,
    Writer,
    decode_signed_varint,
    decode_varint,
    encode_signed_varint,
    encode_signed_varint_array,
    encode_varint,
    encode_varint_array,
    varint_size,
)


class TestUnsignedVarint:
    def test_small_values_are_one_byte(self):
        for value in (0, 1, 127):
            assert len(encode_varint(value)) == 1

    def test_larger_values_grow(self):
        assert len(encode_varint(128)) == 2
        assert len(encode_varint(1 << 20)) == 3

    def test_roundtrip_examples(self):
        for value in (0, 1, 127, 128, 300, 2**31, 2**60):
            blob = encode_varint(value)
            decoded, offset = decode_varint(blob)
            assert decoded == value
            assert offset == len(blob)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        blob = encode_varint(300)[:-1]
        with pytest.raises(EOFError):
            decode_varint(blob)

    def test_decode_with_offset(self):
        blob = b"\x00" + encode_varint(500)
        value, offset = decode_varint(blob, 1)
        assert value == 500
        assert offset == len(blob)

    @given(st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value


class TestVarintSizes:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_size_is_the_encoded_length(self, value):
        assert varint_size(value) == len(encode_varint(value))


class TestSignedVarint:
    def test_roundtrip_examples(self):
        for value in (0, 1, -1, 63, -64, 12345, -98765, 2**40, -(2**40)):
            decoded, _ = decode_signed_varint(encode_signed_varint(value))
            assert decoded == value

    def test_zigzag_keeps_small_magnitudes_short(self):
        assert len(encode_signed_varint(-1)) == 1
        assert len(encode_signed_varint(63)) == 1

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, value):
        decoded, _ = decode_signed_varint(encode_signed_varint(value))
        assert decoded == value

    def test_stream_of_values(self):
        values = [3, -7, 0, 1000, -123456]
        blob = b"".join(encode_signed_varint(v) for v in values)
        pos = 0
        out = []
        for _ in values:
            value, pos = decode_signed_varint(blob, pos)
            out.append(value)
        assert out == values


class TestFramingCursor:
    def _framed(self) -> bytes:
        out = Writer(b"TAG0")
        out.varint(300)
        out.varints((16, 8, 1))
        out.f64(1e-3)
        out.blob(b"payload")
        out.extend(encode_varint_array(np.array([5, 2**40])))
        out.extend(encode_signed_varint_array(np.array([-3, 7])))
        return bytes(out)

    def _read_all(self, data: bytes):
        reader = Reader(data)
        fields = (
            reader.take(4),
            reader.varint(),
            tuple(reader.varint() for _ in range(3)),
            reader.f64(),
            reader.blob(),
            reader.varints(2).tolist(),
            reader.signed_varints(2).tolist(),
        )
        return fields, reader.remaining

    def test_reader_reads_what_the_writer_wrote(self):
        fields, remaining = self._read_all(self._framed())
        assert fields == (b"TAG0", 300, (16, 8, 1), 1e-3, b"payload", [5, 2**40], [-3, 7])
        assert remaining == 0

    def test_writer_matches_the_scalar_codecs(self):
        out = Writer()
        out.varints((0, 127, 128))
        out.blob(b"xy")
        assert bytes(out) == (
            encode_varint(0) + encode_varint(127) + encode_varint(128) + b"\x02xy"
        )

    def test_every_strict_prefix_raises_eof(self):
        data = self._framed()
        for cut in range(len(data)):
            with pytest.raises(EOFError):
                self._read_all(data[:cut])
