"""Tests for repro.stats.variogram_models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.stats.variogram import EmpiricalVariogram, VariogramConfig, empirical_variogram
from repro.stats.variogram_models import (
    MAX_RANGE_LAGS,
    MIN_RANGE,
    MIN_SILL,
    estimate_variogram_range,
    fit_variogram,
    gaussian_variogram,
)


class TestModelFunctions:
    def test_gaussian_zero_at_origin_and_sill_at_infinity(self):
        assert gaussian_variogram(np.array([0.0]), 2.0, 5.0)[0] == pytest.approx(0.0)
        assert gaussian_variogram(np.array([1e6]), 2.0, 5.0)[0] == pytest.approx(2.0)

    def test_nugget_shifts_origin(self):
        assert gaussian_variogram(np.array([0.0]), 2.0, 5.0, nugget=0.3)[0] == pytest.approx(0.3)

    def test_models_increase_with_distance(self):
        values = gaussian_variogram(np.linspace(0, 30, 50), 1.0, 10.0)
        assert np.all(np.diff(values) >= -1e-12)


class TestFitVariogram:
    def _synthetic_variogram(self, sill, range_, nugget=0.0, noise=0.0, seed=0):
        lags = np.linspace(1.0, 40.0, 30)
        values = gaussian_variogram(lags, sill, range_, nugget)
        if noise:
            values = values + np.random.default_rng(seed).normal(0, noise, size=lags.size)
        return EmpiricalVariogram(
            lags=lags,
            values=np.clip(values, 0, None),
            pair_counts=np.full(lags.size, 1000, dtype=np.int64),
            field_variance=sill + nugget,
        )

    def test_recovers_known_parameters(self):
        variogram = self._synthetic_variogram(sill=2.0, range_=12.0)
        fitted = fit_variogram(variogram)
        assert fitted.sill == pytest.approx(2.0, rel=0.02)
        assert fitted.range == pytest.approx(12.0, rel=0.02)
        assert fitted.converged

    def test_recovers_nugget_when_requested(self):
        variogram = self._synthetic_variogram(sill=1.5, range_=8.0, nugget=0.25)
        fitted = fit_variogram(variogram, fit_nugget=True)
        assert fitted.nugget == pytest.approx(0.25, abs=0.05)
        assert fitted.range == pytest.approx(8.0, rel=0.1)

    def test_robust_to_noise(self):
        variogram = self._synthetic_variogram(sill=1.0, range_=15.0, noise=0.03, seed=1)
        fitted = fit_variogram(variogram)
        assert fitted.range == pytest.approx(15.0, rel=0.2)

    def test_too_few_bins_rejected(self):
        variogram = EmpiricalVariogram(
            lags=np.array([1.0, 2.0]),
            values=np.array([0.1, 0.2]),
            pair_counts=np.array([10, 10]),
            field_variance=1.0,
        )
        with pytest.raises(ValueError, match="at least 3"):
            fit_variogram(variogram)


class TestEstimateVariogramRange:
    @pytest.mark.parametrize("true_range", [4.0, 8.0, 16.0])
    def test_recovers_generative_range(self, true_range):
        field = generate_gaussian_field((128, 128), true_range, seed=int(true_range))
        estimated = estimate_variogram_range(field)
        assert estimated == pytest.approx(true_range, rel=0.35)

    def test_monotone_in_true_range(self):
        estimates = [
            estimate_variogram_range(generate_gaussian_field((96, 96), a, seed=7))
            for a in (2.0, 8.0, 24.0)
        ]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_custom_config_respected(self, smooth_field):
        value = estimate_variogram_range(
            smooth_field, config=VariogramConfig(max_lag=16.0, bin_width=2.0)
        )
        assert value > 0

    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 16)])
    def test_constant_field_has_no_range(self, shape):
        # A least-squares fit to the all-zero variogram returns an arbitrary
        # finite range (7.70 at 32^2, 3.72 at 16^3), not a property of the data.
        assert np.isnan(estimate_variogram_range(np.full(shape, 3.7)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, bad):
        field = generate_gaussian_field((32, 32), 4.0, seed=1)
        field[3, 5] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            estimate_variogram_range(field)


def _scipy_fit(variogram, fit_nugget: bool):
    """Reference fit: bounded trust-region least squares from a moment start.

    The iterative optimiser the library used before its closed-form fit;
    ``(sill, range, nugget)``.
    """

    from scipy.optimize import least_squares

    lags, values = variogram.lags, variogram.values
    w = np.sqrt(variogram.pair_counts.astype(np.float64))
    w = w / w.max()
    sill0 = max(float(variogram.field_variance), float(values.max()), 1e-12)
    above = np.nonzero(values >= 0.632 * sill0)[0]
    range0 = float(lags[above[0]]) if above.size else float(lags[-1] / 2.0)
    range0 = max(range0, float(lags[0]), 1e-6)
    lower, upper = [1e-12, 1e-6], [np.inf, 10.0 * float(lags[-1])]
    x0 = [sill0, range0]
    if fit_nugget:
        lower, upper, x0 = lower + [0.0], upper + [sill0], x0 + [0.0]

    def residuals(params):
        sill, range_, *nugget = params
        return w * (gaussian_variogram(lags, sill, range_, *nugget) - values)

    result = least_squares(residuals, x0=x0, bounds=(lower, upper), method="trf", max_nfev=2000)
    sill, range_, *nugget = result.x
    return sill, range_, (nugget[0] if nugget else 0.0)


def _weighted_misfit(variogram, sill, range_, nugget) -> float:
    w = np.sqrt(variogram.pair_counts.astype(np.float64))
    w2 = (w / w.max()) ** 2
    residual = gaussian_variogram(variogram.lags, sill, range_, nugget) - variogram.values
    return float(np.sum(w2 * residual**2))


def _reference_variograms():
    """Synthetic, Gaussian-field and Miranda-window variograms."""

    lags = np.linspace(1.0, 24.0, 20)
    noise = np.random.default_rng(3).normal(0.0, 0.02, lags.size)
    synthetic = EmpiricalVariogram(
        lags=lags,
        values=np.clip(gaussian_variogram(lags, 1.0, 7.0, 0.1) + noise, 0.0, None),
        pair_counts=np.linspace(4000, 300, lags.size).astype(np.int64),
        field_variance=1.1,
    )
    volume = generate_miranda_like_volume((32, 32, 32), seed=0)
    return {
        "synthetic": synthetic,
        "gaussian-field": empirical_variogram(generate_gaussian_field((64, 64), 6.0, seed=4)),
        "miranda-window": empirical_variogram(volume[:16, :16, :16]),
        "miranda-slice": empirical_variogram(volume[7], VariogramConfig(max_lag=10.0)),
    }


class TestAgainstScipyReference:
    """The closed-form fit is never a worse fit than the optimiser it replaced."""

    @pytest.mark.parametrize(
        "fit_nugget", [False, True], ids=["gaussian-no-nugget", "gaussian-nugget"]
    )
    def test_objective_no_worse_and_bounds_respected(self, fit_nugget):
        for name, variogram in _reference_variograms().items():
            fitted = fit_variogram(variogram, fit_nugget=fit_nugget)
            reference = _scipy_fit(variogram, fit_nugget)
            ours = _weighted_misfit(variogram, fitted.sill, fitted.range, fitted.nugget)
            theirs = _weighted_misfit(variogram, *reference)
            assert ours <= (1 + 1e-9) * theirs, name

            cap = max(variogram.field_variance, variogram.values.max(), 1e-12)
            assert MIN_RANGE <= fitted.range <= MAX_RANGE_LAGS * variogram.lags[-1], name
            assert fitted.sill >= MIN_SILL, name
            assert 0.0 <= fitted.nugget <= (cap if fit_nugget else 0.0), name
            assert fitted.converged
