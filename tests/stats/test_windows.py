"""Tests for repro.stats.windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.windows import field_windows, window_grid_shape


class TestWindowGridShape:
    def test_exact_division(self):
        assert window_grid_shape((64, 96), 32) == (2, 3)

    def test_partial_windows_dropped(self):
        assert window_grid_shape((70, 33), 32) == (2, 1)

    def test_window_larger_than_field(self):
        assert window_grid_shape((16, 16), 32) == (0, 0)


class TestFieldWindows:
    def test_covers_complete_windows_only(self):
        field = np.arange(70 * 40, dtype=float).reshape(70, 40)
        windows = list(field_windows(field, 32))
        assert len(windows) == 2 * 1
        for (wi, wj), tile in windows:
            assert tile.shape == (32, 32)

    def test_window_content_matches_slices(self):
        field = np.random.default_rng(0).normal(size=(64, 64))
        for (wi, wj), tile in field_windows(field, 32):
            np.testing.assert_array_equal(
                tile, field[wi * 32 : (wi + 1) * 32, wj * 32 : (wj + 1) * 32]
            )

    def test_windows_are_views(self):
        field = np.zeros((64, 64))
        (_, tile), *_ = list(field_windows(field, 32))
        tile[0, 0] = 5.0
        assert field[0, 0] == 5.0

    def test_field_smaller_than_window_rejected(self):
        with pytest.raises(ValueError, match="smaller than the window"):
            list(field_windows(np.ones((16, 16)), 32))

    def test_volume_tiled_into_cubes_in_c_order(self):
        volume = np.random.default_rng(1).normal(size=(16, 24, 9))
        windows = list(field_windows(volume, 8))
        assert window_grid_shape(volume.shape, 8) == (2, 3, 1)
        assert [index for index, _ in windows] == list(np.ndindex(2, 3, 1))
        for (wi, wj, wk), tile in windows:
            np.testing.assert_array_equal(
                tile, volume[wi * 8 : wi * 8 + 8, wj * 8 : wj * 8 + 8, wk * 8 : wk * 8 + 8]
            )

    def test_other_dimensions_rejected(self):
        with pytest.raises(ValueError, match="2D/3D"):
            list(field_windows(np.ones(64), 8))
