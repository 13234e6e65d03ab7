"""Tests for repro.stats.local."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.stats.local import local_variogram_ranges, std_local_variogram_range


class TestLocalVariogramRanges:
    def test_grid_shape_matches_complete_windows(self, smooth_field):
        result = local_variogram_ranges(smooth_field, window=32)
        assert result.ranges.shape == (2, 2)

    def test_constant_windows_are_nan_and_excluded(self):
        field = np.zeros((64, 64))
        field[32:, :] = np.random.default_rng(0).normal(size=(32, 64))
        result = local_variogram_ranges(field, window=32)
        assert np.isnan(result.ranges).sum() == 2
        assert np.isfinite(result.std)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_is_nan_and_excluded(self, bad):
        field = generate_gaussian_field((64, 64), 4.0, seed=1)
        clean = local_variogram_ranges(field, window=32)
        field[40, 5] = bad
        result = local_variogram_ranges(field, window=32)
        assert np.isnan(result.ranges[1, 0])
        assert np.isnan(result.ranges).sum() == 1
        finite = np.isfinite(result.ranges)
        np.testing.assert_allclose(result.ranges[finite], clean.ranges[finite], rtol=1e-9)
        assert result.std == pytest.approx(np.std(clean.ranges[finite]), rel=1e-9)

    def test_fully_constant_field_gives_nan_summary(self):
        result = local_variogram_ranges(np.ones((64, 64)), window=32)
        assert np.isnan(result.ranges).all()
        assert np.isnan(result.std)

    def test_field_without_complete_windows_rejected(self):
        with pytest.raises(ValueError):
            local_variogram_ranges(np.ones((16, 16)), window=32)

    def test_homogeneous_field_has_low_range_dispersion(self):
        # A stationary field should have much lower relative dispersion of
        # local ranges than a field whose correlation length varies in space.
        homogeneous = generate_gaussian_field((128, 128), 4.0, seed=0)
        rows = np.linspace(0, 1, 128)[:, None]
        heterogeneous = (
            generate_gaussian_field((128, 128), 2.0, seed=1) * rows
            + generate_gaussian_field((128, 128), 24.0, seed=2) * (1 - rows)
        )
        std_homo = std_local_variogram_range(homogeneous, 32)
        std_hetero = std_local_variogram_range(heterogeneous, 32)
        assert std_hetero > std_homo

    def test_mean_tracks_true_range_for_small_ranges(self):
        field = generate_gaussian_field((128, 128), 3.0, seed=3)
        result = local_variogram_ranges(field, window=32)
        assert result.valid_ranges.mean() == pytest.approx(3.0, rel=0.6)

    def test_summary_statistics_consistent_with_ranges(self, multi_range_field):
        result = local_variogram_ranges(multi_range_field, window=32)
        assert result.std == pytest.approx(result.valid_ranges.std())


class TestStdLocalVariogramRange:
    def test_scalar_output(self, smooth_field):
        value = std_local_variogram_range(smooth_field, 32)
        assert isinstance(value, float)
        assert value >= 0

    def test_window_size_affects_statistic(self, multi_range_field):
        a = std_local_variogram_range(multi_range_field, 16)
        b = std_local_variogram_range(multi_range_field, 32)
        assert a != b
