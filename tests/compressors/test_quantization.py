"""Tests for the linear quantizer of repro.compressors.blocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors.blocks import DEFAULT_CODE_RADIUS, linear_quantize


class TestLinearQuantize:
    def test_perfect_prediction_gives_zero_codes(self):
        values = np.random.default_rng(0).normal(size=(8, 8))
        codes, unpredictable, reconstruction = linear_quantize(values, values, 1e-3)
        np.testing.assert_array_equal(codes, 0)
        assert not unpredictable.any()
        np.testing.assert_allclose(reconstruction, values, atol=1e-3)

    def test_error_bound_respected(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(16, 16))
        predictions = values + rng.normal(scale=0.1, size=(16, 16))
        for bound in (1e-4, 1e-2, 1e-1):
            _, _, reconstruction = linear_quantize(values, predictions, bound)
            assert np.abs(reconstruction - values).max() <= bound * (1 + 1e-12)

    def test_large_residuals_marked_unpredictable(self):
        values = np.array([[0.0, 1e9]])
        predictions = np.zeros((1, 2))
        _, unpredictable, reconstruction = linear_quantize(
            values, predictions, 1e-6, code_radius=100
        )
        assert unpredictable[0, 1]
        assert not unpredictable[0, 0]
        # Unpredictable entries reconstruct exactly.
        assert reconstruction[0, 1] == 1e9

    def test_codes_are_integers_with_expected_values(self):
        values = np.array([[0.25, -0.25, 0.5]])
        predictions = np.zeros((1, 3))
        codes, _, _ = linear_quantize(values, predictions, 0.125)
        np.testing.assert_array_equal(codes, [[1, -1, 2]])

    def test_non_finite_codes_handled(self):
        values = np.array([[np.inf, 1.0]])
        predictions = np.zeros((1, 2))
        _, unpredictable, _ = linear_quantize(values, predictions, 1e-3)
        assert unpredictable[0, 0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_quantize(np.zeros((2, 2)), np.zeros((3, 3)), 1e-3)

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            linear_quantize(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)

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
        predictions = np.zeros_like(values)
        _, _, reconstruction = linear_quantize(values, predictions, bound)
        assert np.abs(reconstruction - values).max(initial=0.0) <= bound * (1 + 1e-9)

    def test_default_radius_matches_sz(self):
        assert DEFAULT_CODE_RADIUS == 2**15
