"""Tests for repro.compressors.mgard."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.compressors.base import CompressorError
from repro.compressors.mgard import MGARDCompressor
from repro.encoding.varint import encode_varint


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MGARDCompressor(error_bound=-1e-3)
        with pytest.raises(ValueError):
            MGARDCompressor(levels=0)
        with pytest.raises(ValueError):
            MGARDCompressor(budget_ratio=0.0)
        with pytest.raises(ValueError):
            MGARDCompressor(backend="snappy")


class TestRoundTrip:
    @pytest.mark.parametrize("bound", [1e-5, 1e-3, 1e-1])
    def test_error_bound_and_decompression_consistency(self, smooth_field, bound):
        compressor = MGARDCompressor(bound)
        compressed = compressor.compress(smooth_field)
        decompressed = compressor.decompress(compressed)
        assert np.abs(decompressed - smooth_field).max() <= bound * (1 + 1e-9)
        np.testing.assert_allclose(decompressed, compressed.reconstruction, atol=1e-12)

    def test_odd_shapes(self):
        field = np.random.default_rng(0).normal(size=(41, 29))
        compressor = MGARDCompressor(1e-3)
        decompressed = compressor.decompress(compressor.compress(field))
        assert decompressed.shape == (41, 29)
        assert np.abs(decompressed - field).max() <= 1e-3 * (1 + 1e-9)

    def test_tiny_fields_fall_back_to_raw(self):
        field = np.random.default_rng(1).normal(size=(5, 5))
        compressed = MGARDCompressor(1e-3).compress(field)
        assert compressed.extras.get("raw_fallback") == 1.0
        np.testing.assert_array_equal(MGARDCompressor(1e-3).decompress(compressed), field)

    def test_explicit_level_count(self, smooth_field):
        compressor = MGARDCompressor(1e-3, levels=2)
        compressed = compressor.compress(smooth_field)
        assert compressed.extras["n_levels"] == 2
        decompressed = compressor.decompress(compressed)
        assert np.abs(decompressed - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_miranda_slice(self, miranda_slice):
        compressor = MGARDCompressor(1e-3)
        decompressed = compressor.decompress(compressor.compress(miranda_slice))
        assert np.abs(decompressed - miranda_slice).max() <= 1e-3 * (1 + 1e-9)

    def test_non_finite_rejected(self):
        field = np.ones((16, 16))
        field[3, 3] = np.inf
        with pytest.raises(CompressorError):
            MGARDCompressor(1e-3).compress(field)


class TestCompressionBehaviour:
    def test_cr_increases_with_error_bound(self, smooth_field):
        crs = [
            MGARDCompressor(b).compress(smooth_field).compression_ratio for b in (1e-5, 1e-3, 1e-1)
        ]
        assert crs[0] < crs[1] < crs[2]

    def test_smoother_data_compresses_better(self, smooth_field, rough_field):
        bound = 1e-3
        assert MGARDCompressor(bound).compress(smooth_field).compression_ratio > MGARDCompressor(
            bound
        ).compress(rough_field).compression_ratio

    def test_budget_ratio_changes_stream(self, smooth_field):
        a = MGARDCompressor(1e-3, budget_ratio=0.3).compress(smooth_field)
        b = MGARDCompressor(1e-3, budget_ratio=0.9).compress(smooth_field)
        assert a.data != b.data
        for compressed, ratio in ((a, 0.3), (b, 0.9)):
            decompressed = MGARDCompressor(1e-3, budget_ratio=ratio).decompress(compressed)
            assert np.abs(decompressed - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_decoder_reads_budget_ratio_from_container(self, smooth_field):
        # Decoding with a differently-configured instance must still work
        # because the ratio is stored in the header.
        compressed = MGARDCompressor(1e-3, budget_ratio=0.3).compress(smooth_field)
        decompressed = MGARDCompressor(1.0, budget_ratio=0.9).decompress(compressed)
        assert np.abs(decompressed - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_wrong_container_rejected(self, smooth_field):
        compressor = MGARDCompressor(1e-3)
        compressed = compressor.compress(smooth_field)
        corrupted = type(compressed)(
            data=b"ZZZZ" + compressed.data[4:],
            original_shape=compressed.original_shape,
            original_dtype=compressed.original_dtype,
            compressor="mgard",
            error_bound=compressed.error_bound,
        )
        with pytest.raises(CompressorError):
            compressor.decompress(corrupted)

    def test_level_count_beyond_the_shape_rejected_before_any_work(self, smooth_field):
        """A mutated level count fails at once, naming both numbers.

        The decoder used to build one level shape per declared level
        before checking anything: 10**6 levels took seconds, and a 10-byte
        varint can declare ~2**63.
        """

        compressor = MGARDCompressor(1e-3)
        compressed = compressor.compress(smooth_field)
        n_levels = int(compressed.extras["n_levels"])
        header = (
            b"MGR2"
            + encode_varint(0)
            + encode_varint(smooth_field.ndim)
            + b"".join(encode_varint(d) for d in smooth_field.shape)
        )
        levels_at = len(header) + 16  # error bound and budget ratio (f64 each)
        assert compressed.data[:len(header)] == header
        assert compressed.data[levels_at:levels_at + 1] == encode_varint(n_levels)
        mutated = type(compressed)(
            data=compressed.data[:levels_at]
            + encode_varint(10**6)
            + compressed.data[levels_at + 1 :],
            original_shape=compressed.original_shape,
            original_dtype=compressed.original_dtype,
            compressor="mgard",
            error_bound=compressed.error_bound,
        )
        started = time.perf_counter()
        with pytest.raises(
            CompressorError, match=rf"declares 1000000 levels .* at most {n_levels}$"
        ):
            compressor.decompress(mutated)
        assert time.perf_counter() - started < 0.5
