"""Tests for repro.pressio.metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.base import CompressedField
from repro.compressors.sz import SZCompressor
from repro.pressio.metrics import evaluate_metrics, psnr


def _fake_compressed(field, data_size, error_bound=1e-3, reconstruction=None):
    return CompressedField(
        data=b"0" * data_size,
        original_shape=field.shape,
        original_dtype=field.dtype,
        compressor="fake",
        error_bound=error_bound,
        reconstruction=reconstruction,
    )


class TestEvaluateMetrics:
    def test_exact_reconstruction_gives_infinite_psnr(self):
        field = np.random.default_rng(0).normal(size=(16, 16))
        compressed = _fake_compressed(field, 256, reconstruction=field.copy())
        metrics = evaluate_metrics(field, compressed)
        assert metrics.psnr == float("inf")
        assert metrics.max_abs_error == 0.0
        assert metrics.rmse == 0.0
        assert metrics.bound_satisfied

    def test_compression_ratio_and_bit_rate(self):
        field = np.zeros((10, 10))
        compressed = _fake_compressed(field, 100, reconstruction=field)
        metrics = evaluate_metrics(field, compressed)
        assert metrics.compression_ratio == pytest.approx(8.0)
        assert metrics.bit_rate == pytest.approx(8.0)

    def test_error_statistics(self):
        field = np.zeros((4, 4))
        recon = np.zeros((4, 4))
        recon[0, 0] = 0.5
        compressed = _fake_compressed(field, 10, error_bound=0.1, reconstruction=recon)
        metrics = evaluate_metrics(field, compressed)
        assert metrics.max_abs_error == pytest.approx(0.5)
        assert metrics.rmse == pytest.approx(np.sqrt(0.25 / 16))
        assert not metrics.bound_satisfied

    def test_psnr_uses_value_range_as_peak(self):
        field = np.linspace(0, 10, 100).reshape(10, 10)
        recon = field + 0.1
        compressed = _fake_compressed(field, 100, error_bound=1.0, reconstruction=recon)
        metrics = evaluate_metrics(field, compressed)
        assert metrics.value_range == pytest.approx(10.0)
        assert metrics.psnr == pytest.approx(20 * np.log10(10.0 / 0.1), rel=1e-6)

    @pytest.mark.parametrize(
        "value_range, rmse, expected",
        [(10.0, 0.0, float("inf")), (0.0, 0.0, float("inf")), (0.0, 0.1, float("-inf"))],
        ids=["exact", "exact-constant", "lossy-constant"],
    )
    def test_psnr_edge_cases(self, value_range, rmse, expected):
        assert psnr(value_range, rmse) == expected

    def test_reconstruction_required(self):
        field = np.zeros((4, 4))
        compressed = _fake_compressed(field, 10)
        with pytest.raises(ValueError, match="no reconstruction"):
            evaluate_metrics(field, compressed)

    def test_shape_mismatch_rejected(self):
        field = np.zeros((4, 4))
        compressed = _fake_compressed(field, 10, reconstruction=np.zeros((5, 5)))
        with pytest.raises(ValueError, match="shape"):
            evaluate_metrics(field, compressed)

    def test_explicit_reconstruction_overrides_stored_one(self, smooth_field):
        compressor = SZCompressor(1e-3)
        compressed = compressor.compress(smooth_field)
        decompressed = compressor.decompress(compressed)
        metrics = evaluate_metrics(smooth_field, compressed, reconstruction=decompressed)
        assert metrics.bound_satisfied
        assert metrics.max_abs_error <= 1e-3 * (1 + 1e-9)

    def test_as_dict_contains_all_fields(self, smooth_field):
        compressed = SZCompressor(1e-2).compress(smooth_field)
        metrics = evaluate_metrics(smooth_field, compressed)
        as_dict = metrics.as_dict()
        for key in ("compression_ratio", "bit_rate", "psnr", "rmse", "max_abs_error"):
            assert key in as_dict
