"""Tests for repro.stats.svd."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.stats.svd import (
    local_svd_truncation_levels,
    std_local_svd_truncation,
    svd_truncation_level,
)


class TestSvdTruncationLevel:
    def test_rank_one_window_needs_one_mode(self):
        u = np.linspace(0, 1, 32)[:, None]
        v = np.linspace(1, 2, 32)[None, :]
        window = u @ v
        assert svd_truncation_level(window, center=False) == 1

    def test_constant_window_is_one_mode(self):
        assert svd_truncation_level(np.full((16, 16), 3.0)) == 1

    def test_full_rank_noise_needs_many_modes(self):
        noise = np.random.default_rng(0).normal(size=(32, 32))
        assert svd_truncation_level(noise) > 16

    def test_energy_fraction_monotonicity(self):
        window = np.random.default_rng(1).normal(size=(32, 32))
        low = svd_truncation_level(window, energy_fraction=0.5)
        high = svd_truncation_level(window, energy_fraction=0.999)
        assert low < high

    def test_level_bounded_by_window_size(self):
        window = np.random.default_rng(2).normal(size=(24, 24))
        assert 1 <= svd_truncation_level(window) <= 24

    def test_invalid_energy_fraction(self):
        with pytest.raises(ValueError):
            svd_truncation_level(np.ones((4, 4)), energy_fraction=0.0)
        with pytest.raises(ValueError):
            svd_truncation_level(np.ones((4, 4)), energy_fraction=1.5)

    def test_smooth_window_needs_fewer_modes_than_rough(self):
        smooth = generate_gaussian_field((32, 32), 16.0, seed=0)
        rough = generate_gaussian_field((32, 32), 1.0, seed=0)
        assert svd_truncation_level(smooth) < svd_truncation_level(rough)


class TestLocalSvd:
    def test_levels_grid_shape(self, smooth_field):
        result = local_svd_truncation_levels(smooth_field, window=32)
        assert result.levels.shape == (2, 2)

    def test_summary_statistics(self, multi_range_field):
        result = local_svd_truncation_levels(multi_range_field, window=32)
        assert result.std == pytest.approx(result.levels.std())

    def test_smooth_fields_have_lower_levels_than_rough(self, smooth_field, rough_field):
        smooth = local_svd_truncation_levels(smooth_field, 32)
        rough = local_svd_truncation_levels(rough_field, 32)
        assert smooth.levels.mean() < rough.levels.mean()

    def test_std_function_matches_result(self, multi_range_field):
        direct = std_local_svd_truncation(multi_range_field, 32)
        via_result = local_svd_truncation_levels(multi_range_field, 32).std
        assert direct == pytest.approx(via_result)

    def test_too_small_field_rejected(self):
        with pytest.raises(ValueError):
            local_svd_truncation_levels(np.ones((16, 16)), window=32)

    def test_heterogeneous_field_has_larger_std(self):
        homogeneous = generate_gaussian_field((128, 128), 8.0, seed=5)
        rows = np.linspace(0, 1, 128)[:, None]
        heterogeneous = (
            generate_gaussian_field((128, 128), 1.5, seed=6) * rows
            + generate_gaussian_field((128, 128), 32.0, seed=7) * (1 - rows)
        )
        assert std_local_svd_truncation(heterogeneous, 32) > std_local_svd_truncation(
            homogeneous, 32
        )
