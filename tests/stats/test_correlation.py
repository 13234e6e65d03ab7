"""Tests for the ACF correlation length (tests.reference.correlation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from tests.reference.correlation import acf_correlation_length, autocorrelation_1d


class TestAutocorrelation1D:
    def test_lag_zero_is_one(self):
        series = np.random.default_rng(0).normal(size=500)
        acf = autocorrelation_1d(series, max_lag=10)
        assert acf[0] == pytest.approx(1.0)

    def test_white_noise_acf_is_small_at_positive_lags(self):
        series = np.random.default_rng(1).normal(size=5000)
        acf = autocorrelation_1d(series, max_lag=20)
        assert np.all(np.abs(acf[1:]) < 0.1)

    def test_ar1_process_acf_decays_geometrically(self):
        rng = np.random.default_rng(2)
        phi = 0.8
        n = 20000
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.normal()
        acf = autocorrelation_1d(x, max_lag=5)
        for lag in range(1, 6):
            assert acf[lag] == pytest.approx(phi**lag, abs=0.05)

    def test_constant_series_handled(self):
        acf = autocorrelation_1d(np.full(100, 3.0), max_lag=5)
        assert acf[0] == pytest.approx(1.0)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation_1d(np.array([1.0]))


class TestAcfCorrelationLength:
    def test_agrees_with_variogram_range_order(self):
        short = generate_gaussian_field((96, 96), 3.0, seed=0)
        long = generate_gaussian_field((96, 96), 18.0, seed=0)
        assert acf_correlation_length(short) < acf_correlation_length(long)

    def test_close_to_true_range_for_squared_exponential(self):
        # e-folding lag of exp(-(h/a)^2) is a itself.
        a = 8.0
        field = generate_gaussian_field((128, 128), a, seed=1)
        estimate = acf_correlation_length(field)
        assert estimate == pytest.approx(a, rel=0.4)

    def test_axis_choice(self):
        field = generate_gaussian_field((96, 96), 6.0, seed=2)
        l0 = acf_correlation_length(field, axis=0)
        l1 = acf_correlation_length(field, axis=1)
        # Isotropic field: both axes give comparable lengths.
        assert l0 == pytest.approx(l1, rel=0.5)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            acf_correlation_length(np.ones((8, 8)), axis=2)

    def test_white_noise_has_sub_unit_length(self, white_noise_field):
        assert acf_correlation_length(white_noise_field) < 1.0
