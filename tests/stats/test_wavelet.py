"""Tests for repro.stats.wavelet."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.gaussian import generate_gaussian_field
from repro.stats.wavelet import (
    haar_transform_2d,
    wavelet_decompose,
    wavelet_energy_statistics,
)
from tests.reference.wavelet import inverse_haar_transform_2d


class TestHaarTransform:
    def test_roundtrip_even_shape(self):
        field = np.random.default_rng(0).normal(size=(32, 48))
        bands = haar_transform_2d(field)
        recon = inverse_haar_transform_2d(bands, field.shape)
        np.testing.assert_allclose(recon, field, atol=1e-12)

    def test_roundtrip_odd_shape(self):
        field = np.random.default_rng(1).normal(size=(33, 47))
        recon = inverse_haar_transform_2d(haar_transform_2d(field), field.shape)
        np.testing.assert_allclose(recon, field, atol=1e-12)

    def test_energy_preserved_for_even_shapes(self):
        field = np.random.default_rng(2).normal(size=(64, 64))
        bands = haar_transform_2d(field)
        total = sum(float((band**2).sum()) for band in bands.values())
        assert total == pytest.approx(float((field**2).sum()), rel=1e-12)

    def test_constant_field_has_only_ll_energy(self):
        field = np.full((16, 16), 3.0)
        bands = haar_transform_2d(field)
        assert float(np.abs(bands["LH"]).max()) < 1e-12
        assert float(np.abs(bands["HL"]).max()) < 1e-12
        assert float(np.abs(bands["HH"]).max()) < 1e-12
        assert float(np.abs(bands["LL"]).max()) > 0

    def test_band_shapes_are_half(self):
        bands = haar_transform_2d(np.zeros((32, 48)))
        for band in bands.values():
            assert band.shape == (16, 24)

    def test_missing_band_rejected(self):
        bands = haar_transform_2d(np.zeros((8, 8)))
        del bands["HH"]
        with pytest.raises(ValueError):
            inverse_haar_transform_2d(bands)

    @given(
        rows=st.integers(min_value=4, max_value=40),
        cols=st.integers(min_value=4, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows, cols):
        field = np.random.default_rng(rows * 97 + cols).normal(size=(rows, cols))
        recon = inverse_haar_transform_2d(haar_transform_2d(field), field.shape)
        np.testing.assert_allclose(recon, field, atol=1e-10)


class TestWaveletDecompose:
    def test_number_of_levels(self):
        field = np.random.default_rng(3).normal(size=(64, 64))
        levels = wavelet_decompose(field, 3)
        assert len(levels) == 3
        assert levels[0]["LL"].shape == (32, 32)
        assert levels[2]["LL"].shape == (8, 8)

    def test_levels_clamped_by_size(self):
        field = np.random.default_rng(4).normal(size=(8, 8))
        levels = wavelet_decompose(field, 10)
        assert 1 <= len(levels) <= 3

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            wavelet_decompose(np.zeros((8, 8)), 0)


class TestWaveletEnergyStatistics:
    def test_fractions_sum_to_one(self):
        field = np.random.default_rng(5).normal(size=(64, 64))
        summary = wavelet_energy_statistics(field, levels=3)
        assert summary.level_energy_fraction.sum() == pytest.approx(1.0)
        assert 0.0 <= summary.approximation_fraction <= 1.0

    def test_smooth_field_has_positive_spectral_slope(self):
        # Long-range-correlated fields concentrate energy at coarse levels
        # (level index increases toward coarse), giving a positive slope.
        smooth = generate_gaussian_field((128, 128), 24.0, seed=0)
        rough = np.random.default_rng(1).normal(size=(128, 128))
        assert (
            wavelet_energy_statistics(smooth, 4).spectral_slope
            > wavelet_energy_statistics(rough, 4).spectral_slope
        )

    def test_white_noise_energy_spread_over_fine_levels(self):
        noise = np.random.default_rng(2).normal(size=(128, 128))
        summary = wavelet_energy_statistics(noise, levels=4)
        # Finest level holds the largest share for white noise (3/4 of
        # coefficients live there).
        assert summary.level_energy_fraction[0] == summary.level_energy_fraction.max()

    def test_smooth_field_keeps_energy_in_approximation(self):
        smooth = generate_gaussian_field((64, 64), 24.0, seed=3)
        noise = np.random.default_rng(3).normal(size=(64, 64))
        assert (
            wavelet_energy_statistics(smooth, 3).approximation_fraction
            > wavelet_energy_statistics(noise, 3).approximation_fraction
        )
