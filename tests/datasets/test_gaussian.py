"""Tests for repro.datasets.gaussian."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.covariance import SquaredExponentialCovariance
from repro.datasets.gaussian import (
    GaussianFieldConfig,
    GaussianRandomFieldGenerator,
    generate_gaussian_field,
    generate_multi_range_field,
)
from repro.utils.rng import make_rng
from tests.reference.gaussian import sample_cholesky


class TestConfig:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GaussianFieldConfig(shape=(0, 10))
        with pytest.raises(ValueError):
            GaussianFieldConfig(shape=(4, 4, 4))


class TestSampling:
    def test_shape_and_dtype(self):
        field = generate_gaussian_field((48, 72), 8.0, seed=0)
        assert field.shape == (48, 72)
        assert field.dtype == np.float64

    def test_deterministic_given_seed(self):
        a = generate_gaussian_field((32, 32), 8.0, seed=5)
        b = generate_gaussian_field((32, 32), 8.0, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_gaussian_field((32, 32), 8.0, seed=5)
        b = generate_gaussian_field((32, 32), 8.0, seed=6)
        assert not np.array_equal(a, b)

    def test_mean_offset_applied(self):
        cov = SquaredExponentialCovariance(range=4.0)
        config = GaussianFieldConfig(shape=(64, 64), covariance=cov, mean=10.0)
        field = GaussianRandomFieldGenerator(config).sample(seed=0)
        assert abs(field.mean() - 10.0) < 1.0

    def test_marginal_variance_close_to_one(self):
        # Average the sample variance over several realisations.
        config = GaussianFieldConfig(
            shape=(64, 64), covariance=SquaredExponentialCovariance(range=3.0, variance=1.0)
        )
        generator = GaussianRandomFieldGenerator(config)
        rng = make_rng(0)
        fields = np.stack([generator.sample(rng) for _ in range(8)])
        assert fields.shape == (8, 64, 64)
        assert abs(fields.var() - 1.0) < 0.15

    def test_larger_range_gives_smoother_field(self):
        rough = generate_gaussian_field((96, 96), 2.0, seed=1)
        smooth = generate_gaussian_field((96, 96), 24.0, seed=1)
        grad_rough = np.abs(np.diff(rough, axis=0)).mean()
        grad_smooth = np.abs(np.diff(smooth, axis=0)).mean()
        assert grad_smooth < grad_rough / 3

    def test_empirical_correlation_matches_model(self):
        # Lag-h sample correlation should track exp(-(h/a)^2).
        a = 8.0
        generator = GaussianRandomFieldGenerator(
            GaussianFieldConfig(shape=(96, 96), covariance=SquaredExponentialCovariance(range=a))
        )
        rng = make_rng(2)
        fields = np.stack([generator.sample(rng) for _ in range(6)])
        for lag in (2, 4, 8):
            x = fields[:, :, :-lag].ravel()
            y = fields[:, :, lag:].ravel()
            empirical = np.corrcoef(x, y)[0, 1]
            expected = np.exp(-((lag / a) ** 2))
            assert abs(empirical - expected) < 0.1

class TestCholeskyReference:
    def test_matches_fft_sampler_statistically(self):
        # Both samplers target the same covariance; compare lag-1 correlation.
        config = GaussianFieldConfig(
            shape=(24, 24), covariance=SquaredExponentialCovariance(range=5.0)
        )
        generator = GaussianRandomFieldGenerator(config)
        fft_fields = np.stack([generator.sample(seed=i) for i in range(12)])
        chol_fields = np.stack([sample_cholesky(config, seed=100 + i) for i in range(12)])

        def lag1(fields):
            return np.corrcoef(fields[:, :, :-1].ravel(), fields[:, :, 1:].ravel())[0, 1]

        assert abs(lag1(fft_fields) - lag1(chol_fields)) < 0.1

    def test_rejects_large_grids(self):
        with pytest.raises(ValueError, match="limited"):
            sample_cholesky(GaussianFieldConfig(shape=(128, 128)))


class TestMultiRange:
    def test_requires_two_ranges(self):
        with pytest.raises(ValueError):
            generate_multi_range_field((32, 32), correlation_ranges=(5.0,))

    def test_shape_and_determinism(self):
        a = generate_multi_range_field((48, 48), (3.0, 20.0), seed=9)
        b = generate_multi_range_field((48, 48), (3.0, 20.0), seed=9)
        assert a.shape == (48, 48)
        np.testing.assert_array_equal(a, b)

    def test_smoothness_between_components(self):
        short = generate_gaussian_field((96, 96), 2.0, seed=3)
        long = generate_gaussian_field((96, 96), 24.0, seed=3)
        mixed = generate_multi_range_field((96, 96), (2.0, 24.0), seed=3)
        grad = lambda f: np.abs(np.diff(f, axis=0)).mean()  # noqa: E731
        assert grad(long) < grad(mixed) < grad(short)
