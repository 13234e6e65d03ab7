"""Tests for the reference bit I/O (tests.reference.bitio)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference.bitio import BitReader, BitWriter


class TestBitWriter:
    def test_single_bits_pack_msb_first(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 1, 0, 0, 0, 1):
            writer.write_bits(bit, 1)
        assert writer.getvalue() == bytes([0b10110001])

    def test_partial_byte_is_zero_padded(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == bytes([0b10100000])

    def test_bit_length_tracks_written_bits(self):
        writer = BitWriter()
        writer.write_bits(0b1111, 4)
        assert writer.bit_length == 4
        writer.write_bits(0, 9)
        assert writer.bit_length == 13

    def test_value_too_large_for_width_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError, match="does not fit"):
            writer.write_bits(8, 3)

    def test_negative_values_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(-1, 4)

    def test_zero_count_is_noop(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert writer.bit_length == 0


class TestBitReader:
    def test_roundtrip_mixed_widths(self):
        writer = BitWriter()
        values = [(5, 3), (0, 1), (1023, 10), (1, 1), (77, 7)]
        for value, width in values:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in values:
            assert reader.read_bits(width) == value

    def test_eof_raises(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(EOFError):
            reader.read_bits(1)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**20), st.integers(min_value=21, max_value=32)), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, pairs):
        writer = BitWriter()
        for value, width in pairs:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in pairs:
            assert reader.read_bits(width) == value
