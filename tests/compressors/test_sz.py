"""Tests for repro.compressors.sz."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.base import CompressorError
from repro.compressors.sz import SZCompressor


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SZCompressor(error_bound=0.0)
        with pytest.raises(ValueError):
            SZCompressor(block_size=1)
        with pytest.raises(ValueError):
            SZCompressor(predictors=())
        with pytest.raises(ValueError):
            SZCompressor(predictors=("unknown",))
        with pytest.raises(ValueError):
            SZCompressor(code_radius=0)
        with pytest.raises(ValueError):
            SZCompressor(backend="lzma")


class TestRoundTrip:
    @pytest.mark.parametrize("bound", [1e-5, 1e-3, 1e-1])
    def test_error_bound_and_decompression_consistency(self, smooth_field, bound):
        compressor = SZCompressor(bound)
        compressed = compressor.compress(smooth_field)
        decompressed = compressor.decompress(compressed)
        assert np.abs(decompressed - smooth_field).max() <= bound * (1 + 1e-9)
        np.testing.assert_array_equal(decompressed, compressed.reconstruction)

    def test_non_multiple_shapes(self):
        field = np.random.default_rng(0).normal(size=(37, 53))
        compressor = SZCompressor(1e-3)
        compressed = compressor.compress(field)
        decompressed = compressor.decompress(compressed)
        assert decompressed.shape == (37, 53)
        assert np.abs(decompressed - field).max() <= 1e-3 * (1 + 1e-9)

    def test_decompression_without_original_options(self, smooth_field):
        # A default-constructed compressor must be able to decode a blob
        # produced with non-default options (self-describing container).
        producer = SZCompressor(1e-3, block_size=8, predictors=("lorenzo",), code_radius=64)
        blob = producer.compress(smooth_field)
        consumer = SZCompressor(1.0)
        decompressed = consumer.decompress(blob)
        assert np.abs(decompressed - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_constant_field(self):
        field = np.full((40, 40), 3.25)
        compressor = SZCompressor(1e-4)
        compressed = compressor.compress(field)
        assert compressed.compression_ratio > 50
        np.testing.assert_allclose(compressor.decompress(compressed), field, atol=1e-4)

    def test_miranda_slice(self, miranda_slice):
        compressor = SZCompressor(1e-3)
        compressed = compressor.compress(miranda_slice)
        decompressed = compressor.decompress(compressed)
        assert np.abs(decompressed - miranda_slice).max() <= 1e-3 * (1 + 1e-9)


class TestCompressionBehaviour:
    def test_cr_increases_with_error_bound(self, smooth_field):
        crs = [
            SZCompressor(b).compress(smooth_field).compression_ratio for b in (1e-5, 1e-3, 1e-1)
        ]
        assert crs[0] < crs[1] < crs[2]

    def test_smoother_data_compresses_better(self, smooth_field, rough_field):
        bound = 1e-3
        assert SZCompressor(bound).compress(smooth_field).compression_ratio > SZCompressor(
            bound
        ).compress(rough_field).compression_ratio

    def test_beats_white_noise_on_correlated_data(self, smooth_field, white_noise_field):
        bound = 1e-3
        assert SZCompressor(bound).compress(smooth_field).compression_ratio > SZCompressor(
            bound
        ).compress(white_noise_field).compression_ratio

    def test_extras_reported(self, smooth_field):
        compressed = SZCompressor(1e-3).compress(smooth_field)
        assert 0.0 <= compressed.extras["unpredictable_fraction"] <= 1.0
        assert 0.0 <= compressed.extras["regression_block_fraction"] <= 1.0
        assert compressed.extras["n_blocks"] == 16  # 64x64 with 16x16 blocks

    def test_single_predictor_modes(self, smooth_field):
        for predictors in (("lorenzo",), ("regression",)):
            compressor = SZCompressor(1e-3, predictors=predictors)
            compressed = compressor.compress(smooth_field)
            decompressed = compressor.decompress(compressed)
            assert np.abs(decompressed - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_hybrid_at_least_as_good_as_worst_single_predictor(self, multi_range_field):
        bound = 1e-3
        hybrid = SZCompressor(bound).compress(multi_range_field).compression_ratio
        lorenzo = SZCompressor(bound, predictors=("lorenzo",)).compress(multi_range_field)
        regression = SZCompressor(bound, predictors=("regression",)).compress(multi_range_field)
        lorenzo, regression = lorenzo.compression_ratio, regression.compression_ratio
        assert hybrid >= min(lorenzo, regression) * 0.95

    def test_zstd_backend_roundtrip(self, smooth_field):
        field = smooth_field[:32, :32]
        compressor = SZCompressor(1e-3, backend="zstd")
        compressed = compressor.compress(field)
        decompressed = compressor.decompress(compressed)
        assert np.abs(decompressed - field).max() <= 1e-3 * (1 + 1e-9)

    def test_raw_backend_roundtrip_and_larger_size(self, smooth_field):
        field = smooth_field[:32, :32]
        raw = SZCompressor(1e-3, backend="raw").compress(field)
        huffman = SZCompressor(1e-3, backend="huffman").compress(field)
        assert raw.compressed_nbytes > huffman.compressed_nbytes
        decompressed = SZCompressor(1e-3, backend="raw").decompress(raw)
        assert np.abs(decompressed - field).max() <= 1e-3 * (1 + 1e-9)

    def test_tiny_error_bound_falls_back_to_raw_storage(self):
        field = np.random.default_rng(1).normal(size=(20, 20)) * 1e10
        compressed = SZCompressor(1e-12).compress(field)
        assert compressed.extras.get("raw_fallback") == 1.0
        decompressed = SZCompressor(1e-12).decompress(compressed)
        np.testing.assert_array_equal(decompressed, field)

    def test_wrong_container_rejected(self):
        compressor = SZCompressor(1e-3)
        compressed = compressor.compress(np.random.default_rng(0).normal(size=(20, 20)))
        corrupted = type(compressed)(
            data=b"XXXX" + compressed.data[4:],
            original_shape=compressed.original_shape,
            original_dtype=compressed.original_dtype,
            compressor="sz",
            error_bound=compressed.error_bound,
        )
        with pytest.raises(CompressorError):
            compressor.decompress(corrupted)

    def test_float32_input_respects_bound_and_ratio_definition(self):
        field32 = np.random.default_rng(2).normal(size=(64, 64)).astype(np.float32)
        compressed = SZCompressor(1e-3).compress(field32)
        assert compressed.original_nbytes == 64 * 64 * 4
        decompressed = SZCompressor(1e-3).decompress(compressed)
        assert np.abs(decompressed - field32).max() <= 1e-3 * (1 + 1e-6)
