"""Tests for repro.core.regression."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regression import fit_log_regression


class TestFitLogRegression:
    def test_recovers_exact_coefficients(self):
        x = np.linspace(1, 50, 40)
        cr = 3.0 + 2.5 * np.log(x)
        fit = fit_log_regression(x, cr)
        assert fit.alpha == pytest.approx(3.0, abs=1e-9)
        assert fit.beta == pytest.approx(2.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.residual_std == pytest.approx(0.0, abs=1e-9)

    def test_noise_reduces_r_squared_but_not_slope_sign(self):
        rng = np.random.default_rng(0)
        x = np.linspace(1, 50, 100)
        cr = 1.0 + 4.0 * np.log(x) + rng.normal(0, 1.0, size=x.size)
        fit = fit_log_regression(x, cr)
        assert 0.5 < fit.r_squared < 1.0
        assert fit.beta == pytest.approx(4.0, rel=0.2)

    def test_log_base_conversion(self):
        x = np.linspace(1, 100, 30)
        cr = 2.0 + 3.0 * np.log10(x)
        fit10 = fit_log_regression(x, cr, log_base=10.0)
        assert fit10.beta == pytest.approx(3.0, abs=1e-9)
        fit_e = fit_log_regression(x, cr)
        assert fit_e.beta == pytest.approx(3.0 / np.log(10.0), abs=1e-9)

    def test_non_positive_and_non_finite_points_dropped(self):
        x = [0.0, -1.0, np.nan, 1.0, np.e, np.e**2]
        cr = [99.0, 99.0, 99.0, 1.0, 2.0, 3.0]
        fit = fit_log_regression(x, cr)
        assert fit.n_points == 3
        assert fit.beta == pytest.approx(1.0, abs=1e-9)

    def test_weighted_fit(self):
        x = np.array([1.0, np.e, np.e**2, np.e**3])
        cr = np.array([0.0, 1.0, 2.0, 30.0])
        unweighted = fit_log_regression(x, cr)
        weighted = fit_log_regression(x, cr, weights=[1.0, 1.0, 1.0, 1e-9])
        # Down-weighting the outlier recovers the clean slope of 1.
        assert abs(weighted.beta - 1.0) < abs(unweighted.beta - 1.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_log_regression([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_log_regression([0.0, -1.0], [2.0, 3.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_log_regression([1.0, 2.0], [1.0])

    def test_invalid_log_base_rejected(self):
        with pytest.raises(ValueError):
            fit_log_regression([1.0, 2.0], [1.0, 2.0], log_base=1.0)

    @given(
        alpha=st.floats(min_value=-10, max_value=10),
        beta=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_recovery_property(self, alpha, beta):
        x = np.array([1.0, 2.0, 5.0, 10.0, 30.0, 100.0])
        cr = alpha + beta * np.log(x)
        fit = fit_log_regression(x, cr)
        assert fit.alpha == pytest.approx(alpha, abs=1e-6)
        assert fit.beta == pytest.approx(beta, abs=1e-6)
