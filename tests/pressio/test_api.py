"""Tests for repro.pressio.api."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.registry import make_compressor
from repro.pressio.api import absolute_bound, compress_and_measure


class TestAbsoluteBound:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            absolute_bound(0.0, "abs", [])
        with pytest.raises(ValueError):
            absolute_bound(1e-3, "psnr", [])

    def test_absolute_mode_never_reads_the_values(self):
        def untouchable():
            raise AssertionError("abs mode read the values")
            yield

        assert absolute_bound(1e-2, "abs", untouchable()) == pytest.approx(1e-2)

    def test_relative_mode_scales_by_value_range(self):
        assert absolute_bound(1e-2, "rel", [np.array([0.0, 50.0])]) == pytest.approx(0.5)

    def test_relative_range_spans_all_blocks(self):
        blocks = [np.array([[5.0, 10.0]]), np.array([[-30.0, 0.0]]), np.array([[20.0]])]
        assert absolute_bound(1e-2, "rel", iter(blocks)) == pytest.approx(0.5)

    def test_relative_mode_on_constant_field_falls_back(self):
        assert absolute_bound(1e-2, "rel", [np.full((4, 4), 3.0)]) == pytest.approx(1e-2)


class TestCompressAndMeasure:
    def test_unknown_compressor_rejected(self, smooth_field):
        with pytest.raises(KeyError, match="available"):
            compress_and_measure(smooth_field, "fpzip", 1e-3)

    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_compress_and_decompress(self, name, smooth_field):
        compressed, metrics = compress_and_measure(smooth_field, name, 1e-3)
        assert metrics.bound_satisfied
        assert metrics.compression_ratio > 1.0
        decompressed = make_compressor(name, compressed.error_bound).decompress(compressed)
        assert np.abs(decompressed - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_relative_mode_resolves_against_field_range(self, smooth_field):
        compressed, metrics = compress_and_measure(smooth_field, "sz", 0.01, mode="rel")
        expected_bound = 0.01 * (smooth_field.max() - smooth_field.min())
        assert compressed.error_bound == pytest.approx(expected_bound)
        assert metrics.max_abs_error <= expected_bound * (1 + 1e-9)

    @pytest.mark.parametrize("bound, mode", [(0.0, "abs"), (-1e-3, "rel"), (1e-3, "psnr")])
    def test_bad_bound_or_mode_rejected(self, smooth_field, bound, mode):
        with pytest.raises(ValueError):
            compress_and_measure(smooth_field, "sz", bound, mode=mode)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            compress_and_measure(np.ones(16), "sz", 1e-3)

    def test_one_call_workflow(self, smooth_field):
        compressed, metrics = compress_and_measure(smooth_field, "sz", 1e-3)
        assert metrics.compression_ratio == pytest.approx(compressed.compression_ratio)
        assert metrics.bound_satisfied
