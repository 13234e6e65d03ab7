"""Tests for repro.compressors.registry and base classes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.base import (
    CompressedField,
    ErrorBoundExceededError,
    LosslessBackend,
)
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.registry import available_compressors, make_compressor
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor


class TestRegistry:
    def test_paper_compressors_available(self):
        assert {"sz", "zfp", "mgard"} <= set(available_compressors())

    def test_make_compressor_types(self):
        assert isinstance(make_compressor("sz", 1e-3), SZCompressor)
        assert isinstance(make_compressor("zfp", 1e-3), ZFPCompressor)
        assert isinstance(make_compressor("mgard", 1e-3), MGARDCompressor)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="available"):
            make_compressor("fpzip", 1e-3)

    def test_registry_is_the_paper_codecs(self):
        assert available_compressors() == ["mgard", "sz", "zfp"]


class TestCompressedField:
    def test_ratio_definition(self):
        compressed = CompressedField(
            data=b"0" * 100,
            original_shape=(10, 10),
            original_dtype=np.dtype(np.float64),
            compressor="sz",
            error_bound=1e-3,
        )
        assert compressed.original_nbytes == 800
        assert compressed.compression_ratio == pytest.approx(8.0)

    def test_empty_blob_gives_infinite_ratio(self):
        compressed = CompressedField(
            data=b"",
            original_shape=(4, 4),
            original_dtype=np.dtype(np.float32),
            compressor="x",
            error_bound=1.0,
        )
        assert compressed.compression_ratio == float("inf")


class TestLosslessBackend:
    @pytest.mark.parametrize("name", ["huffman", "zstd", "raw"])
    def test_roundtrip(self, name):
        backend = LosslessBackend(name)
        symbols = np.random.default_rng(0).integers(0, 50, size=500)
        np.testing.assert_array_equal(backend.decode_symbols(backend.encode_symbols(symbols)), symbols)

    def test_decoding_is_backend_agnostic(self):
        # The tag byte makes the stream self-describing.
        symbols = np.arange(100)
        blob = LosslessBackend("raw").encode_symbols(symbols)
        np.testing.assert_array_equal(LosslessBackend("huffman").decode_symbols(blob), symbols)

    def test_negative_symbols_rejected(self):
        with pytest.raises(ValueError):
            LosslessBackend().encode_symbols(np.array([-1]))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            LosslessBackend("gzip")

    def test_huffman_smaller_than_raw_on_skewed_streams(self):
        symbols = np.zeros(5000, dtype=np.int64)
        symbols[::100] = 7
        raw = LosslessBackend("raw").encode_symbols(symbols)
        huffman = LosslessBackend("huffman").encode_symbols(symbols)
        assert len(huffman) < len(raw) / 20

    def test_empty_stream(self):
        backend = LosslessBackend()
        assert backend.decode_symbols(backend.encode_symbols(np.array([], dtype=np.int64))).size == 0


class TestErrorBoundCheck:
    @pytest.mark.parametrize("offset", [1.0, np.nan], ids=["violation", "nan"])
    def test_check_error_bound_raises_on_violation(self, smooth_field, offset):
        compressor = SZCompressor(1e-3)
        with pytest.raises(ErrorBoundExceededError):
            compressor.check_error_bound(smooth_field, smooth_field + offset)

    def test_check_error_bound_returns_max_error(self, smooth_field):
        compressor = SZCompressor(1e-3)
        value = compressor.check_error_bound(smooth_field, smooth_field + 5e-4)
        assert value == pytest.approx(5e-4)
