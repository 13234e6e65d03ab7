"""Tests for repro.compressors.zfp."""

from __future__ import annotations

import pathlib
import warnings

import numpy as np
import pytest

from repro.compressors.base import CompressorError
from repro.compressors.zfp import ZFPCompressor

_GOLDEN = pathlib.Path(__file__).parent / "data" / "zfp_golden.npz"


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ZFPCompressor(error_bound=-1.0)
        with pytest.raises(ValueError):
            ZFPCompressor(block_size=1)
        with pytest.raises(ValueError):
            ZFPCompressor(backend="bzip2")


class TestRoundTrip:
    @pytest.mark.parametrize("bound", [1e-5, 1e-3, 1e-1])
    def test_error_bound_and_decompression_consistency(self, smooth_field, bound):
        compressor = ZFPCompressor(bound)
        compressed = compressor.compress(smooth_field)
        decompressed = compressor.decompress(compressed)
        assert np.abs(decompressed - smooth_field).max() <= bound * (1 + 1e-9)
        np.testing.assert_allclose(decompressed, compressed.reconstruction, atol=1e-12)

    def test_non_multiple_shapes(self):
        field = np.random.default_rng(0).normal(size=(30, 45))
        compressor = ZFPCompressor(1e-3)
        decompressed = compressor.decompress(compressor.compress(field))
        assert decompressed.shape == (30, 45)
        assert np.abs(decompressed - field).max() <= 1e-3 * (1 + 1e-9)

    def test_constant_and_zero_fields(self):
        compressor = ZFPCompressor(1e-4)
        zero = np.zeros((32, 32))
        compressed = compressor.compress(zero)
        np.testing.assert_allclose(compressor.decompress(compressed), zero, atol=1e-4)
        assert compressed.compression_ratio > 20

        constant = np.full((32, 32), -5.75)
        compressed_const = compressor.compress(constant)
        np.testing.assert_allclose(
            compressor.decompress(compressed_const), constant, atol=1e-4
        )

    def test_miranda_slice(self, miranda_slice):
        compressor = ZFPCompressor(1e-3)
        decompressed = compressor.decompress(compressor.compress(miranda_slice))
        assert np.abs(decompressed - miranda_slice).max() <= 1e-3 * (1 + 1e-9)

    def test_large_magnitude_values(self):
        field = np.random.default_rng(1).normal(size=(32, 32)) * 1e6 + 1e7
        compressor = ZFPCompressor(1.0)
        decompressed = compressor.decompress(compressor.compress(field))
        assert np.abs(decompressed - field).max() <= 1.0 * (1 + 1e-9)

    def test_non_finite_rejected(self):
        field = np.ones((8, 8))
        field[0, 0] = np.nan
        with pytest.raises(CompressorError):
            ZFPCompressor(1e-3).compress(field)


class TestCompressionBehaviour:
    def test_cr_increases_with_error_bound(self, smooth_field):
        crs = [
            ZFPCompressor(b).compress(smooth_field).compression_ratio for b in (1e-5, 1e-3, 1e-1)
        ]
        assert crs[0] < crs[1] < crs[2]

    def test_smoother_data_compresses_better(self, smooth_field, rough_field):
        bound = 1e-3
        assert ZFPCompressor(bound).compress(smooth_field).compression_ratio > ZFPCompressor(
            bound
        ).compress(rough_field).compression_ratio

    def test_negligible_blocks_detected_for_tiny_data(self):
        field = np.random.default_rng(2).normal(size=(32, 32)) * 1e-6
        compressed = ZFPCompressor(1e-3).compress(field)
        assert compressed.extras["negligible_block_fraction"] == 1.0
        assert compressed.compression_ratio > 20

    def test_extras_reported(self, smooth_field):
        compressed = ZFPCompressor(1e-3).compress(smooth_field)
        assert compressed.extras["n_blocks"] == (64 // 4) ** 2
        assert 0.0 <= compressed.extras["exact_block_fraction"] <= 1.0

    def test_block_size_option(self, smooth_field):
        compressor = ZFPCompressor(1e-3, block_size=8)
        decompressed = compressor.decompress(compressor.compress(smooth_field))
        assert np.abs(decompressed - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_extreme_ratio_casts_are_guarded(self):
        """Regression: coefficient/step ratios at extreme magnitude/bound
        combinations used to hit an undefined non-finite -> int64 cast
        (RuntimeWarning from NumPy) before the overflow guard ran; the mask
        must now be applied on the float ratios, pre-cast."""

        rng = np.random.default_rng(7)
        cases = [
            rng.normal(size=(16, 16)) * 1e300,  # step underflows -> inf ratios
            rng.normal(size=(16, 16)) * 1e18,  # ratios beyond the code radius
            np.full((8, 8), 1e250),
        ]
        for field in cases:
            for bound in (1e-12, 1e-3):
                compressor = ZFPCompressor(bound)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    compressed = compressor.compress(field)
                decompressed = compressor.decompress(compressed)
                assert np.abs(decompressed - field).max() <= bound * (1 + 1e-9)

    def test_int64_min_sign_trap_does_not_leak_garbage(self):
        """np.abs(np.int64.min) is still negative, so a post-cast magnitude
        check can pass garbage codes; the pre-cast guard must route such
        blocks to exact storage with an exact round trip."""

        field = np.full((4, 4), 2.0**300)
        field[0, 0] = -(2.0**300)
        compressor = ZFPCompressor(1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compressed = compressor.compress(field)
        assert compressed.extras["exact_block_fraction"] == 1.0
        np.testing.assert_array_equal(compressor.decompress(compressed), field)

    def test_decompress_does_not_mutate_error_bound(self, smooth_field):
        """The decoded bound must be threaded explicitly, never installed on
        the instance (reentrancy/thread safety)."""

        producer = ZFPCompressor(1e-2)
        compressed = producer.compress(smooth_field)
        consumer = ZFPCompressor(1e-5)
        decompressed = consumer.decompress(compressed)
        assert consumer.error_bound == 1e-5
        assert producer.error_bound == 1e-2
        assert np.abs(decompressed - smooth_field).max() <= 1e-2 * (1 + 1e-9)

    def test_wrong_container_rejected(self, smooth_field):
        compressor = ZFPCompressor(1e-3)
        compressed = compressor.compress(smooth_field)
        corrupted = type(compressed)(
            data=b"YYYY" + compressed.data[4:],
            original_shape=compressed.original_shape,
            original_dtype=compressed.original_dtype,
            compressor="zfp",
            error_bound=compressed.error_bound,
        )
        with pytest.raises(CompressorError):
            compressor.decompress(corrupted)


class TestGoldenStream:
    """Pin the sequency-partitioned stream against the pre-refactor
    reconstruction: the container format changed, but the quantization math
    (exponents, steps, rounding, exact/negligible routing) must reproduce
    the recorded reconstructions bit for bit."""

    @pytest.fixture(scope="class")
    def golden(self):
        with np.load(_GOLDEN) as data:
            return {key: data[key] for key in data.files}

    @pytest.mark.parametrize("bound", [1e-4, 1e-2])
    def test_reconstruction_matches_golden(self, golden, bound):
        compressor = ZFPCompressor(bound)
        reconstruction = compressor.decompress(compressor.compress(golden["field"]))
        np.testing.assert_array_equal(reconstruction, golden[f"recon_{bound:.0e}"])

    def test_extreme_field_matches_golden(self, golden):
        compressor = ZFPCompressor(1e-4)
        reconstruction = compressor.decompress(compressor.compress(golden["extreme_field"]))
        np.testing.assert_array_equal(reconstruction, golden["extreme_recon_1e-04"])

    def test_stream_group_extras_reported(self, golden):
        compressed = ZFPCompressor(1e-4).compress(golden["field"])
        assert compressed.extras["coefficient_stream_groups"] >= 1.0
