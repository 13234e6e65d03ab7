"""Tests for the quantization stage of repro.compressors.blocks.

The SZ-like codec quantizes in two steps: :func:`quantize_to_grid` rounds
the field onto the ``2*eb`` grid (or reports that it cannot), and
:func:`split_unpredictable` moves residual codes beyond the code radius
into an exact side channel that :func:`merge_unpredictable` restores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors.blocks import (
    MAX_SAFE_CODE,
    merge_unpredictable,
    quantize_to_grid,
    split_unpredictable,
)


class TestQuantizeToGrid:
    def test_zero_field_gives_zero_codes(self):
        codes = quantize_to_grid(np.zeros((8, 8)), 2e-3)
        assert codes is not None
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, 0)

    @pytest.mark.parametrize("bound", [1e-4, 1e-2, 1e-1])
    def test_error_bound_respected(self, bound):
        values = np.random.default_rng(1).normal(size=(16, 16))
        step = 2.0 * bound
        codes = quantize_to_grid(values, step)
        assert np.abs(codes * step - values).max() <= bound * (1 + 1e-12)

    def test_values_on_the_grid_are_exact(self):
        grid = np.arange(-20, 21, dtype=np.int64).reshape(1, -1)
        codes = quantize_to_grid(grid * 0.25, 0.25)
        np.testing.assert_array_equal(codes, grid)

    def test_max_code_is_inclusive(self):
        values = np.array([[-3.0, 3.0]])
        np.testing.assert_array_equal(quantize_to_grid(values, 1.0, max_code=3), [[-3, 3]])
        assert quantize_to_grid(values, 1.0, max_code=2) is None

    def test_default_max_code_is_the_int64_safe_limit(self):
        assert quantize_to_grid(np.array([MAX_SAFE_CODE]), 1.0) is not None
        assert quantize_to_grid(np.array([4 * MAX_SAFE_CODE]), 1.0) is None

    def test_empty_field_quantizes(self):
        codes = quantize_to_grid(np.zeros((0, 4)), 1e-3)
        assert codes is not None and codes.shape == (0, 4)

    @given(
        values=hnp.arrays(
            np.float64,
            (6, 7),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        bound=st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_bound_property(self, values, bound):
        step = 2.0 * bound
        codes = quantize_to_grid(values, step)
        assert codes is not None
        assert np.abs(codes * step - values).max(initial=0.0) <= bound * (1 + 1e-9)


class TestUnpredictableSideChannel:
    def test_large_residuals_go_to_the_side_channel(self):
        residuals = np.array([[0, 10**9, -3]])
        symbols, outliers = split_unpredictable(residuals, 100)
        np.testing.assert_array_equal(symbols, [[101, 0, 98]])
        np.testing.assert_array_equal(outliers, [10**9])

    def test_radius_is_inclusive(self):
        symbols, outliers = split_unpredictable(np.array([-5, 5, 6, -6]), 5)
        np.testing.assert_array_equal(symbols, [1, 11, 0, 0])
        np.testing.assert_array_equal(outliers, [6, -6])

    @given(
        residuals=hnp.arrays(
            np.int64, (5, 9), elements=st.integers(min_value=-(2**40), max_value=2**40)
        ),
        radius=st.integers(min_value=1, max_value=2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_merge_roundtrip_property(self, residuals, radius):
        symbols, outliers = split_unpredictable(residuals, radius)
        assert symbols.min() >= 0 and symbols.max() <= 2 * radius + 1
        assert outliers.size == int(np.count_nonzero(symbols == 0))
        np.testing.assert_array_equal(merge_unpredictable(symbols, outliers, radius), residuals)
