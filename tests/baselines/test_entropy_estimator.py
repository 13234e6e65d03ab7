"""Tests for repro.baselines.entropy_estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.entropy_estimator import entropy_cr_bound
from repro.compressors.sz import SZCompressor


class TestEntropyCrBound:
    def test_larger_bound_gives_larger_cr_bound(self, rough_field):
        assert entropy_cr_bound(rough_field, 1e-1) > entropy_cr_bound(rough_field, 1e-4)

    def test_constant_field_gives_huge_bound(self):
        assert entropy_cr_bound(np.full((16, 16), 1.0), 1e-3) > 1e5

    def test_float32_bits_parameter(self, rough_field):
        bound64 = entropy_cr_bound(rough_field, 1e-3, original_bits_per_value=64)
        bound32 = entropy_cr_bound(rough_field, 1e-3, original_bits_per_value=32)
        assert bound64 == pytest.approx(2.0 * bound32)

    def test_correlated_data_lets_sz_beat_the_marginal_entropy_bound(self, smooth_field):
        # The whole point of the paper: spatial correlation gives prediction-
        # based compressors headroom beyond the (correlation-blind) marginal
        # entropy bound.
        bound = 1e-3
        sz_cr = SZCompressor(bound).compress(smooth_field).compression_ratio
        marginal_bound = entropy_cr_bound(smooth_field, bound)
        assert sz_cr > marginal_bound

    def test_white_noise_stays_below_entropy_bound(self, white_noise_field):
        # Without spatial correlation there is nothing to predict: the
        # entropy of the quantized marginal is (close to) the real limit and
        # a practical compressor with per-stream overheads stays under it.
        bound = 1e-3
        sz_cr = SZCompressor(bound).compress(white_noise_field).compression_ratio
        marginal_bound = entropy_cr_bound(white_noise_field, bound)
        assert sz_cr < marginal_bound * 1.2

    def test_invalid_arguments(self, rough_field):
        with pytest.raises(ValueError):
            entropy_cr_bound(rough_field, 0.0)
        with pytest.raises(ValueError):
            entropy_cr_bound(rough_field, 1e-3, original_bits_per_value=0)
