"""Tests for repro.baselines.sampling_estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.sampling_estimator import estimate_cr_by_sampling
from repro.compressors.sz import SZCompressor


class TestBlockSamplingEstimate:
    def test_reproducible_given_seed(self, smooth_field):
        a = estimate_cr_by_sampling(smooth_field, "sz", 1e-3, seed=0)
        b = estimate_cr_by_sampling(smooth_field, "sz", 1e-3, seed=0)
        assert a.estimated_cr == b.estimated_cr

    def test_estimate_correlates_with_true_cr(self):
        from repro.datasets.gaussian import generate_gaussian_field

        bound = 1e-3
        estimates, truths = [], []
        for a, seed in ((2.0, 0), (8.0, 1), (24.0, 2)):
            field = generate_gaussian_field((96, 96), a, seed=seed)
            estimates.append(
                estimate_cr_by_sampling(field, "sz", bound, n_blocks=12, seed=3).estimated_cr
            )
            truths.append(SZCompressor(bound).compress(field).compression_ratio)
        # The estimator must preserve the ordering of compressibility.
        assert np.argsort(estimates).tolist() == np.argsort(truths).tolist()

    def test_result_fields(self, smooth_field):
        estimate = estimate_cr_by_sampling(
            smooth_field, "zfp", 1e-3, n_blocks=4, block_size=16, seed=0
        )
        assert estimate.compressor == "zfp"
        assert estimate.n_blocks == 4
        assert estimate.block_size == 16
        assert len(estimate.per_block_crs) == 4
        assert 0 < estimate.sampled_fraction <= 1.0

    def test_block_size_larger_than_field_rejected(self, smooth_field):
        with pytest.raises(ValueError):
            estimate_cr_by_sampling(smooth_field, "sz", 1e-3, block_size=128)

    def test_invalid_arguments(self, smooth_field):
        with pytest.raises(ValueError):
            estimate_cr_by_sampling(smooth_field, "sz", 0.0)
        with pytest.raises(ValueError):
            estimate_cr_by_sampling(smooth_field, "sz", 1e-3, n_blocks=0)

    def test_compressor_options_forwarded(self, smooth_field):
        estimate = estimate_cr_by_sampling(
            smooth_field, "sz", 1e-3, n_blocks=4, seed=0, predictors=("lorenzo",)
        )
        assert estimate.estimated_cr > 0


class TestScales:
    def test_small_field_samples_base_and_double_scales(self, smooth_field):
        # 64x64 field, block 32: double tile fits, quad (128) does not.
        estimate = estimate_cr_by_sampling(smooth_field, "sz", 1e-3, seed=0)
        assert estimate.scales == (32, 64)

    def test_large_field_samples_quad_scale(self):
        from repro.datasets.gaussian import generate_gaussian_field

        field = generate_gaussian_field((128, 128), 8.0, seed=7)
        estimate = estimate_cr_by_sampling(field, "sz", 1e-3, seed=0)
        assert estimate.scales == (32, 64, 128)
        assert np.isfinite(estimate.estimated_cr) and estimate.estimated_cr > 0

    def test_quad_scale_can_be_disabled(self):
        from repro.datasets.gaussian import generate_gaussian_field

        field = generate_gaussian_field((128, 128), 8.0, seed=7)
        estimate = estimate_cr_by_sampling(
            field, "sz", 1e-3, seed=0, large_tile=False
        )
        assert estimate.scales == (32, 64)

    def test_uncorrected_form_samples_one_scale(self, smooth_field):
        estimate = estimate_cr_by_sampling(
            smooth_field, "sz", 1e-3, seed=0, overhead_correction=False
        )
        assert estimate.scales == (32,)
        assert estimate.overhead_bytes_per_block == 0.0

    def test_quad_scale_reduces_rough_field_sz_bias(self):
        """The ROADMAP open item: SZ under-estimation on rough fields.

        Cross-tile redundancy operates above the 64^2 calibration scale,
        so the quad-tile extrapolation must estimate SZ's CR on a rough
        field at least as accurately as the two-scale form.
        """

        from repro.datasets.gaussian import generate_gaussian_field

        field = generate_gaussian_field((128, 128), 2.0, seed=11)
        true_cr = SZCompressor(1e-3).compress(field).compression_ratio
        with_quad = estimate_cr_by_sampling(
            field, "sz", 1e-3, seed=0
        ).estimated_cr
        without = estimate_cr_by_sampling(
            field, "sz", 1e-3, seed=0, large_tile=False
        ).estimated_cr
        assert abs(with_quad - true_cr) <= abs(without - true_cr)


class TestVolumeSampling:
    def test_3d_estimation_round_trips(self):
        from repro.datasets.miranda import generate_miranda_like_volume

        volume = generate_miranda_like_volume((40, 40, 40), seed=5)
        estimate = estimate_cr_by_sampling(volume, "sz", 1e-3, n_blocks=6, seed=0)
        assert estimate.block_size == 16  # 3D default tile edge
        assert estimate.scales == (16, 32)
        assert np.isfinite(estimate.estimated_cr) and estimate.estimated_cr > 0

    def test_3d_estimate_tracks_true_cr(self):
        from repro.compressors.registry import make_compressor
        from repro.datasets.miranda import generate_miranda_like_volume

        volume = generate_miranda_like_volume((48, 48, 48), seed=6)
        true_cr = make_compressor("sz", 1e-3).compress(volume).compression_ratio
        estimate = estimate_cr_by_sampling(
            volume, "sz", 1e-3, n_blocks=8, seed=0
        ).estimated_cr
        assert 0.5 * true_cr <= estimate <= 2.0 * true_cr

    def test_4d_rejected(self):
        with pytest.raises(ValueError):
            estimate_cr_by_sampling(np.zeros((4, 4, 4, 4)), "sz", 1e-3)
