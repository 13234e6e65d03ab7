"""Tests for the hyperplane regression predictor of repro.compressors.blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.blocks import (
    coefficient_precisions,
    dequantize_plane_coefficients,
    fit_block_planes,
    plane_design_matrix,
    plane_predictions,
    quantize_plane_coefficients,
)


class TestDesignMatrix:
    def test_shape_and_columns(self):
        design = plane_design_matrix(4)
        assert design.shape == (16, 3)
        np.testing.assert_array_equal(design[:, 0], np.ones(16))
        assert design[:, 1].max() == 3
        assert design[:, 2].max() == 3


class TestFitBlockPlanes:
    def test_exact_plane_recovered(self):
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        block = 2.0 + 0.5 * ii - 0.25 * jj
        coeffs = fit_block_planes(block[None, None])
        np.testing.assert_allclose(coeffs[0, 0], [2.0, 0.5, -0.25], atol=1e-10)

    def test_constant_block(self):
        block = np.full((1, 1, 16, 16), 7.0)
        coeffs = fit_block_planes(block)
        np.testing.assert_allclose(coeffs[0, 0], [7.0, 0.0, 0.0], atol=1e-10)

    def test_multiple_blocks_fitted_independently(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(3, 5, 8, 8))
        coeffs = fit_block_planes(blocks)
        assert coeffs.shape == (3, 5, 3)
        # Spot check one block against lstsq.
        design = plane_design_matrix(8)
        expected, *_ = np.linalg.lstsq(design, blocks[1, 2].ravel(), rcond=None)
        np.testing.assert_allclose(coeffs[1, 2], expected, atol=1e-10)

    def test_least_squares_is_optimal(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(1, 1, 8, 8))
        coeffs = fit_block_planes(block)
        pred = plane_predictions(coeffs, 8)
        residual = float(((block - pred) ** 2).sum())
        perturbed = coeffs + np.array([0.01, 0.0, 0.0])
        residual_perturbed = float(((block - plane_predictions(perturbed, 8)) ** 2).sum())
        assert residual <= residual_perturbed

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fit_block_planes(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            fit_block_planes(np.zeros((1, 1, 4, 5)))


class TestCoefficientQuantization:
    def test_precision_scaling_with_block_size(self):
        precisions = coefficient_precisions(1e-3, 16)
        assert precisions[0] == pytest.approx(1e-3)
        assert precisions[1] == pytest.approx(1e-3 / 16)
        assert precisions[2] == pytest.approx(1e-3 / 16)

    def test_quantize_dequantize_error_within_half_precision(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=(4, 4, 3))
        codes = quantize_plane_coefficients(coeffs, 1e-3, 16)
        recovered = dequantize_plane_coefficients(codes, 1e-3, 16)
        precisions = coefficient_precisions(1e-3, 16)
        assert np.all(np.abs(recovered - coeffs) <= precisions / 2 + 1e-15)

    def test_plane_prediction_error_bounded_after_coefficient_quantization(self):
        # The quantized plane must stay within ~error_bound of the exact
        # plane anywhere in the block (this is what makes the SZ regression
        # predictor safe).
        rng = np.random.default_rng(3)
        bs, bound = 16, 1e-3
        blocks = rng.normal(size=(2, 2, bs, bs))
        coeffs = fit_block_planes(blocks)
        codes = quantize_plane_coefficients(coeffs, bound, bs)
        quantized = dequantize_plane_coefficients(codes, bound, bs)
        exact_pred = plane_predictions(coeffs, bs)
        quant_pred = plane_predictions(quantized, bs)
        max_dev = np.abs(exact_pred - quant_pred).max()
        assert max_dev <= bound * 1.6  # 0.5 + 2 * (bs-1)/(2*bs) ~ 1.5


class TestPlanePredictions:
    def test_prediction_matches_plane_equation(self):
        coeffs = np.array([[[1.0, 2.0, -1.0]]])
        pred = plane_predictions(coeffs, 4)
        ii, jj = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        np.testing.assert_allclose(pred[0, 0], 1.0 + 2.0 * ii - 1.0 * jj)

    def test_rejects_bad_coefficient_shape(self):
        # A trailing axis below 2 cannot hold (intercept, slope...) for any
        # dimensionality; a flat (n, 3) batch is now valid (N-d engine).
        with pytest.raises(ValueError):
            plane_predictions(np.zeros((2, 2, 1)), 4)
