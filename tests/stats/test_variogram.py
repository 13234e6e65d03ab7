"""Tests for repro.stats.variogram."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.datasets.covariance import SquaredExponentialCovariance
from repro.datasets.gaussian import generate_gaussian_field
from repro.stats.variogram import EmpiricalVariogram, VariogramConfig, empirical_variogram


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            VariogramConfig(max_lag=-1.0)
        with pytest.raises(ValueError):
            VariogramConfig(bin_width=0.0)
        with pytest.raises(ValueError):
            VariogramConfig(min_pairs_per_bin=0)

    @pytest.mark.parametrize("option", ["method", "n_pairs"])
    def test_sampled_pair_options_are_gone(self, option):
        # The estimator is the exact FFT one over every pair; no config
        # selects another.
        with pytest.raises(TypeError):
            VariogramConfig(**{option: 1})

    def test_estimator_takes_no_seed(self):
        with pytest.raises(TypeError):
            empirical_variogram(np.zeros((8, 8)), seed=0)

    def test_min_pairs_per_bin_drops_sparse_bins(self, smooth_field):
        full = empirical_variogram(smooth_field, VariogramConfig(max_lag=20.0))
        threshold = int(np.median(full.pair_counts)) + 1
        kept = empirical_variogram(
            smooth_field, VariogramConfig(max_lag=20.0, min_pairs_per_bin=threshold)
        )
        assert 0 < kept.lags.size < full.lags.size
        assert (kept.pair_counts >= threshold).all()
        np.testing.assert_allclose(kept.values, full.values[full.pair_counts >= threshold])


class TestResultInvariants:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalVariogram(
                lags=np.array([1.0, 2.0]),
                values=np.array([0.1]),
                pair_counts=np.array([5, 5]),
                field_variance=1.0,
            )


class TestFFTEstimator:
    def test_constant_field_has_zero_variogram(self):
        field = np.full((32, 32), 3.7)
        result = empirical_variogram(field)
        np.testing.assert_allclose(result.values, 0.0, atol=1e-20)

    def test_values_are_non_negative(self, smooth_field):
        result = empirical_variogram(smooth_field)
        assert np.all(result.values >= 0)

    def test_lags_within_max_lag_and_increasing(self, smooth_field):
        config = VariogramConfig(max_lag=20.0)
        result = empirical_variogram(smooth_field, config)
        assert result.lags.max() <= 20.0 + 1e-9
        assert np.all(np.diff(result.lags) > 0)

    def test_default_max_lag_is_half_min_dimension(self):
        field = np.random.default_rng(0).normal(size=(40, 60))
        result = empirical_variogram(field)
        assert result.lags.max() <= 20.0 + 1e-9

    def test_white_noise_sill_matches_variance(self, white_noise_field):
        result = empirical_variogram(white_noise_field)
        # For uncorrelated data the semi-variogram equals the variance at
        # every positive lag.
        np.testing.assert_allclose(
            result.values.mean(), white_noise_field.var(), rtol=0.1
        )

    def test_matches_brute_force_on_small_field(self):
        rng = np.random.default_rng(3)
        field = rng.normal(size=(7, 6))
        config = VariogramConfig(max_lag=4.0, bin_width=1.0)
        result = empirical_variogram(field, config)

        # Brute-force Matheron estimator over all pairs.
        rows, cols = field.shape
        coords = [(i, j) for i in range(rows) for j in range(cols)]
        n_bins = int(np.ceil(4.0 / 1.0))
        sums = np.zeros(n_bins)
        counts = np.zeros(n_bins)
        for a in range(len(coords)):
            for b in range(a + 1, len(coords)):
                (i1, j1), (i2, j2) = coords[a], coords[b]
                dist = np.hypot(i1 - i2, j1 - j2)
                if 0 < dist <= 4.0:
                    bin_idx = min(int(dist / 1.0), n_bins - 1)
                    sums[bin_idx] += (field[i1, j1] - field[i2, j2]) ** 2
                    counts[bin_idx] += 1
        expected = sums[counts > 0] / (2.0 * counts[counts > 0])
        np.testing.assert_allclose(result.values, expected, rtol=1e-10)
        np.testing.assert_allclose(result.pair_counts, counts[counts > 0])

    def test_shift_invariance(self, smooth_field):
        base = empirical_variogram(smooth_field)
        shifted = empirical_variogram(smooth_field + 100.0)
        np.testing.assert_allclose(base.values, shifted.values, rtol=1e-8, atol=1e-10)

    def test_scaling_by_constant_scales_variogram_quadratically(self, smooth_field):
        base = empirical_variogram(smooth_field)
        scaled = empirical_variogram(3.0 * smooth_field)
        np.testing.assert_allclose(scaled.values, 9.0 * base.values, rtol=1e-8)

    def test_smooth_field_has_smaller_short_lag_variogram(self, smooth_field, rough_field):
        smooth = empirical_variogram(smooth_field)
        rough = empirical_variogram(rough_field)
        assert smooth.values[0] < rough.values[0]

    def test_theoretical_shape_recovered(self):
        # gamma(h)/sill should follow 1 - exp(-(h/a)^2) reasonably well.
        a = 10.0
        field = generate_gaussian_field((128, 128), a, seed=11)
        result = empirical_variogram(field, VariogramConfig(max_lag=30.0))
        model = SquaredExponentialCovariance(range=a, variance=field.var())
        expected = model.variance - model(result.lags)
        # Allow generous tolerance: single realisation, finite domain.
        correlation = np.corrcoef(result.values, expected)[0, 1]
        assert correlation > 0.97

    def test_rejects_tiny_fields(self):
        with pytest.raises(ValueError):
            empirical_variogram(np.ones((1, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(16, 16), (8, 8, 8)])
    def test_rejects_non_finite_fields_before_any_arithmetic(self, bad, shape):
        field = np.random.default_rng(3).normal(size=shape)
        field.flat[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or inf"):
                empirical_variogram(field)

    @pytest.mark.parametrize("shape", [(8,), (4, 4, 4, 4)])
    def test_rejects_other_dimensions(self, shape):
        with pytest.raises(ValueError, match="2D/3D"):
            empirical_variogram(np.random.default_rng(4).normal(size=shape))
