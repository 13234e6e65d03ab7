"""Edge-case coverage for the encoding layer.

Targets the corners the compressor hot paths rely on: empty inputs,
degenerate single-symbol Huffman alphabets, bit-stream flushes at non-byte
boundaries, varint extremes, the vectorized array codecs matching their
scalar counterparts byte-for-byte, the lossless backend's stream-tag
dispatch (Huffman+RLE vs direct Huffman vs fixed-width packing), and its
rejection of length fields that no payload byte backs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.base import LosslessBackend
from repro.encoding.bitio import BitReader, BitWriter
from repro.encoding.huffman import huffman_decode, huffman_encode
from repro.encoding.rle import rle_decode, rle_encode
from repro.encoding.varint import (
    decode_signed_varint_array,
    decode_varint,
    decode_varint_array,
    encode_signed_varint,
    encode_signed_varint_array,
    encode_varint,
    encode_varint_array,
)


class TestEmptyInputs:
    def test_huffman_empty(self):
        blob = huffman_encode([])
        assert huffman_decode(blob).size == 0

    def test_rle_empty(self):
        values, runs = rle_encode(np.empty(0, dtype=np.int64))
        assert values.size == runs.size == 0
        assert rle_decode(values, runs).size == 0

    def test_varint_array_empty(self):
        assert encode_varint_array(np.empty(0, dtype=np.int64)) == b""
        out, pos = decode_varint_array(b"anything", 0, 3)
        assert out.size == 0 and pos == 3

    def test_backend_empty_roundtrip(self):
        for name in ("huffman", "zstd", "raw"):
            backend = LosslessBackend(name)
            blob = backend.encode_symbols(np.empty(0, dtype=np.int64))
            assert backend.decode_symbols(blob).size == 0

    def test_bitio_empty_bulk(self):
        writer = BitWriter()
        writer.write_bits_array(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        assert writer.getvalue() == b""
        reader = BitReader(b"")
        assert reader.read_bits_array(np.empty(0, dtype=np.int64)).size == 0


class TestSingleSymbolAlphabet:
    def test_single_symbol_roundtrip(self):
        for count in (1, 7, 64, 1000):
            blob = huffman_encode([42] * count)
            np.testing.assert_array_equal(huffman_decode(blob), np.full(count, 42))

    def test_single_symbol_through_backend(self):
        backend = LosslessBackend("huffman")
        symbols = np.zeros(321, dtype=np.int64)
        np.testing.assert_array_equal(
            backend.decode_symbols(backend.encode_symbols(symbols)), symbols
        )

    def test_two_symbol_alphabet(self):
        symbols = np.array([5, 9] * 100)
        np.testing.assert_array_equal(huffman_decode(huffman_encode(symbols)), symbols)


class TestBitioBoundaries:
    def test_flush_at_non_byte_boundary(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.bit_length == 3
        # getvalue pads the final partial byte with zeros on the right.
        assert writer.getvalue() == bytes([0b10100000])
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(3) == 0b101

    def test_bulk_write_leaves_partial_byte_pending(self):
        writer = BitWriter()
        writer.write_bits_array(np.array([1, 1, 1], dtype=np.uint64), 3)
        assert writer.bit_length == 9
        writer.write_bits(0b1111111, 7)  # crosses the byte boundary
        reader = BitReader(writer.getvalue())
        np.testing.assert_array_equal(reader.read_bits_array(np.full(3, 3)), [1, 1, 1])
        assert reader.read_bits(7) == 0b1111111

    def test_bulk_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 24, size=300)
        values = np.array(
            [rng.integers(0, 1 << c) if c else 0 for c in counts], dtype=np.uint64
        )
        scalar = BitWriter()
        for v, c in zip(values, counts):
            scalar.write_bits(int(v), int(c))
        bulk = BitWriter()
        bulk.write_bits_array(values, counts)
        assert scalar.getvalue() == bulk.getvalue()
        reader = BitReader(bulk.getvalue())
        np.testing.assert_array_equal(reader.read_bits_array(counts), values)

    def test_bulk_read_past_end_raises(self):
        reader = BitReader(b"\xff")
        with pytest.raises(EOFError):
            reader.read_bits_array(np.array([5, 5]))

    def test_bulk_write_rejects_oversized_values(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits_array(np.array([8], dtype=np.uint64), 3)
        with pytest.raises(ValueError):
            writer.write_bits_array(np.array([-1], dtype=np.int64), 8)

    def test_64_bit_fields(self):
        values = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)
        writer = BitWriter()
        writer.write_bits_array(values, 64)
        reader = BitReader(writer.getvalue())
        np.testing.assert_array_equal(reader.read_bits_array(np.full(3, 64)), values)


class TestVarintExtremes:
    def test_max_uint64_roundtrip(self):
        value = 2**64 - 1
        blob = encode_varint(value)
        assert len(blob) == 10
        decoded, pos = decode_varint(blob)
        assert decoded == value and pos == 10
        arr = np.array([2**64 - 1, 0, 1], dtype=np.uint64)
        out, _ = decode_varint_array(encode_varint_array(arr), 3)
        np.testing.assert_array_equal(out, arr)

    def test_int64_extremes_signed(self):
        extremes = np.array(
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1], dtype=np.int64
        )
        blob = encode_signed_varint_array(extremes)
        ref = b"".join(encode_signed_varint(int(v)) for v in extremes)
        assert blob == ref
        out, _ = decode_signed_varint_array(blob, extremes.size)
        np.testing.assert_array_equal(out, extremes)

    def test_array_codec_matches_scalar_bytes(self):
        rng = np.random.default_rng(13)
        arr = rng.integers(0, 2**62, size=500)
        assert encode_varint_array(arr) == b"".join(encode_varint(int(v)) for v in arr)

    def test_truncated_array_raises(self):
        blob = encode_varint_array(np.array([300, 300]))
        with pytest.raises(EOFError):
            decode_varint_array(blob[:-1], 2)

    def test_overlong_varint_rejected(self):
        blob = b"\x80" * 11 + b"\x01"
        with pytest.raises(ValueError):
            decode_varint(blob)
        with pytest.raises(ValueError):
            decode_varint_array(blob, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)
        with pytest.raises(ValueError):
            encode_varint_array(np.array([-1]))

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_array_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        out, pos = decode_varint_array(encode_varint_array(arr), arr.size)
        assert pos == len(encode_varint_array(arr))
        np.testing.assert_array_equal(out.astype(np.int64), arr)


class TestHuffmanRobustness:
    def test_truncated_payload_raises(self):
        blob = huffman_encode([1, 2, 3, 1, 2, 1] * 20)
        with pytest.raises((EOFError, ValueError)):
            huffman_decode(blob[:-2])

    def test_garbage_header_raises(self):
        with pytest.raises((EOFError, ValueError)):
            huffman_decode(b"\xff\xff\xff")

    def test_single_symbol_stream_without_payload_bits_raises(self):
        # One-symbol table declaring 1000 symbols but carrying 0 payload
        # bytes: the stream is short by 1000 bits.
        header = encode_varint(1000) + encode_varint(1) + encode_varint_array(
            np.array([7, 1])
        )
        with pytest.raises(EOFError):
            huffman_decode(header + encode_varint(0))
        blob = huffman_encode([7] * 1000)
        np.testing.assert_array_equal(huffman_decode(blob), np.full(1000, 7))

    def test_long_codes_fall_back_to_scalar_decoder(self):
        # A hand-built header with code lengths above the table limit still
        # decodes through the scalar path (foreign/legacy streams).
        from repro.encoding.huffman import HuffmanCode, _MAX_TABLE_BITS

        code = HuffmanCode.from_lengths({0: 1, 1: 2, 2: _MAX_TABLE_BITS + 2, 3: _MAX_TABLE_BITS + 2})
        header = bytearray()
        header.extend(encode_varint(4))  # n_symbols
        header.extend(encode_varint(len(code.symbols)))
        for sym, length in zip(code.symbols, code.lengths):
            header.extend(encode_varint(sym))
            header.extend(encode_varint(length))
        writer = BitWriter()
        lookup = code.as_lookup()
        for sym in [0, 1, 2, 3]:
            cw, ln = lookup[sym]
            writer.write_bits(cw, ln)
        payload = writer.getvalue()
        header.extend(encode_varint(len(payload)))
        header.extend(payload)
        np.testing.assert_array_equal(huffman_decode(bytes(header)), [0, 1, 2, 3])


class TestBackendTagDispatch:
    def _tag(self, blob: bytes) -> bytes:
        return blob[:1]

    def test_runny_stream_uses_rle_huffman(self):
        symbols = np.repeat(np.array([3, 7, 3, 9]), 200)
        backend = LosslessBackend("huffman")
        blob = backend.encode_symbols(symbols)
        assert self._tag(blob) == b"H"
        np.testing.assert_array_equal(backend.decode_symbols(blob), symbols)

    def test_non_runny_stream_uses_direct_huffman(self):
        rng = np.random.default_rng(17)
        symbols = np.abs(rng.geometric(0.3, size=2000) - 1)
        backend = LosslessBackend("huffman")
        blob = backend.encode_symbols(symbols)
        assert self._tag(blob) == b"D"
        np.testing.assert_array_equal(backend.decode_symbols(blob), symbols)

    def test_high_entropy_stream_uses_packed(self):
        rng = np.random.default_rng(19)
        symbols = rng.integers(0, 2**20, size=300)
        backend = LosslessBackend("huffman")
        blob = backend.encode_symbols(symbols)
        assert self._tag(blob) == b"P"
        np.testing.assert_array_equal(backend.decode_symbols(blob), symbols)

    def test_raw_backend(self):
        symbols = np.array([0, 5, 2**40])
        backend = LosslessBackend("raw")
        blob = backend.encode_symbols(symbols)
        assert self._tag(blob) == b"R"
        np.testing.assert_array_equal(backend.decode_symbols(blob), symbols)

    @pytest.mark.parametrize("cut", [1, 8, 16, 80])
    def test_truncated_raw_stream_raises(self, cut):
        # A body cut by a multiple of 8 bytes used to decode short silently.
        blob = LosslessBackend("raw").encode_symbols(np.arange(10))
        with pytest.raises(EOFError):
            LosslessBackend("raw").decode_symbols(blob[:-cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            LosslessBackend("huffman").decode_symbols(b"X123")

    @given(
        st.lists(st.integers(min_value=0, max_value=5000), max_size=400),
        st.sampled_from(["huffman", "zstd", "raw"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_backend_roundtrip_property(self, symbols, name):
        arr = np.asarray(symbols, dtype=np.int64)
        backend = LosslessBackend(name)
        np.testing.assert_array_equal(
            backend.decode_symbols(backend.encode_symbols(arr)), arr
        )


class TestFixedWidthUnpack:
    @pytest.mark.parametrize("width", [1, 3, 8, 9, 17, 33, 57, 63, 64])
    def test_inverse_of_pack_at_every_word_size(self, width):
        rng = np.random.default_rng(width)
        values = rng.integers(0, 2**63, 37, dtype=np.uint64) >> np.uint64(64 - width)
        data = LosslessBackend._pack_fixed_width(values, width)
        unpacked = LosslessBackend._unpack_fixed_width(data, values.size, width)
        np.testing.assert_array_equal(unpacked, values.astype(np.int64))
        reference = BitReader(data).read_bits_array(np.full(values.size, width))
        np.testing.assert_array_equal(unpacked, reference.astype(np.int64))

    @pytest.mark.parametrize("width", [0, 65])
    def test_width_outside_1_to_64_rejected(self, width):
        blob = b"P" + encode_varint(5) + encode_varint(width) + bytes(64)
        with pytest.raises(ValueError):
            LosslessBackend("huffman").decode_symbols(blob)


class TestCorruptLengthFields:
    """A payload's count field must fail typed before anything of its size
    is allocated: a ``P`` count beyond its bits, a ``D`` or ``C`` symbol
    count beyond one bit per symbol."""

    @staticmethod
    def _blob(tag: str, count: int) -> bytes:
        if tag == "P":
            return b"P" + encode_varint(count) + encode_varint(8) + bytes(4)
        if tag == "C":
            return b"C" + encode_varint(count) + encode_varint(2) + encode_varint(0) + bytes(4)
        table = encode_varint(count) + encode_varint(2) + encode_varint_array(np.array([0, 1, 1, 1]))
        return b"D" + encode_varint(count) + table + encode_varint(4) + bytes(4)

    @pytest.mark.parametrize("count", [2**27, 2**40])
    @pytest.mark.parametrize("tag", ["P", "D", "C"])
    def test_oversized_count_raises_without_allocating(self, tag, count):
        from repro.encoding.context import EntropyContext

        context = EntropyContext.from_streams([np.array([0, 1, 2, 3, 3])])
        blob = self._blob(tag, count)
        tracemalloc.start()
        try:
            with pytest.raises(EOFError):
                LosslessBackend("huffman").decode_symbols(blob, context=context)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
