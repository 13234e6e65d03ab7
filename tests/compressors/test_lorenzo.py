"""Tests for the block Lorenzo of repro.compressors.blocks and the
feedback reference in repro.compressors.lorenzo."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors.blocks import lorenzo_reconstruct, lorenzo_residuals
from repro.compressors.lorenzo import lorenzo_predict_feedback
from repro.utils.blocking import block_view


class TestBlockLorenzo:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(-1000, 1000, size=(3, 4, 8, 8))
        residuals = lorenzo_residuals(codes)
        np.testing.assert_array_equal(lorenzo_reconstruct(residuals), codes)

    def test_constant_block_residuals_are_sparse(self):
        codes = np.full((1, 1, 8, 8), 5, dtype=np.int64)
        residuals = lorenzo_residuals(codes)
        # Only the corner carries the value; first row/col carry zero deltas.
        assert residuals[0, 0, 0, 0] == 5
        assert np.count_nonzero(residuals) == 1

    def test_linear_ramp_residuals_vanish_in_interior(self):
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        codes = (3 * ii + 2 * jj).astype(np.int64)[None, None]
        residuals = lorenzo_residuals(codes)
        # A plane is reproduced exactly by the first-order Lorenzo predictor.
        assert np.count_nonzero(residuals[0, 0, 1:, 1:]) == 0

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            lorenzo_residuals(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            lorenzo_reconstruct(np.zeros((4, 4)))

    def test_smooth_field_produces_smaller_residuals_than_rough(
        self, smooth_field, rough_field
    ):
        step = 2e-3
        smooth_codes = block_view(np.rint(smooth_field / step).astype(np.int64), 16)
        rough_codes = block_view(np.rint(rough_field / step).astype(np.int64), 16)
        smooth_abs = np.abs(lorenzo_residuals(smooth_codes)).mean()
        rough_abs = np.abs(lorenzo_residuals(rough_codes)).mean()
        assert smooth_abs < rough_abs

    @given(
        codes=hnp.arrays(
            np.int64, (2, 2, 4, 4), elements=st.integers(min_value=-(2**30), max_value=2**30)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, codes):
        np.testing.assert_array_equal(
            lorenzo_reconstruct(lorenzo_residuals(codes)), codes
        )


class TestFeedbackLorenzo:
    def test_error_bound_holds(self, smooth_field):
        field = smooth_field[:24, :24]
        for bound in (1e-4, 1e-2):
            _, _, recon = lorenzo_predict_feedback(field, bound)
            assert np.abs(recon - field).max() <= bound * (1 + 1e-12)

    def test_unpredictable_values_exact(self):
        field = np.zeros((4, 4))
        field[2, 2] = 1e12
        codes, unpredictable, recon = lorenzo_predict_feedback(field, 1e-6, code_radius=10)
        assert unpredictable[2, 2]
        assert recon[2, 2] == 1e12

    def test_smooth_data_mostly_predictable(self, smooth_field):
        field = smooth_field[:32, :32]
        codes, unpredictable, _ = lorenzo_predict_feedback(field, 1e-3)
        assert unpredictable.mean() < 0.05

    def test_agrees_with_block_formulation_on_code_statistics(self, smooth_field):
        # Both formulations should find smooth data highly predictable: the
        # overwhelming majority of codes near zero.
        field = smooth_field[:32, :32]
        bound = 1e-3
        codes_feedback, _, _ = lorenzo_predict_feedback(field, bound)
        q = np.rint(field / (2 * bound)).astype(np.int64)
        codes_block = lorenzo_residuals(block_view(q, 16))
        frac_small_feedback = float(np.mean(np.abs(codes_feedback) <= 16))
        frac_small_block = float(np.mean(np.abs(codes_block) <= 16))
        assert frac_small_feedback > 0.9
        assert frac_small_block > 0.9
        assert abs(frac_small_feedback - frac_small_block) < 0.1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lorenzo_predict_feedback(np.ones(5), 1e-3)
        with pytest.raises(ValueError):
            lorenzo_predict_feedback(np.ones((4, 4)), -1.0)
