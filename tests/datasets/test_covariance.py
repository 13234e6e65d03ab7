"""Tests for repro.datasets.covariance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.covariance import MixtureCovariance, SquaredExponentialCovariance

ALL_MODELS = [
    SquaredExponentialCovariance(range=8.0, variance=2.0),
    MixtureCovariance(
        [SquaredExponentialCovariance(range=2.0), SquaredExponentialCovariance(range=20.0)]
    ),
]


class TestCommonProperties:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_value_at_zero_is_variance(self, model):
        assert model(np.array([0.0]))[0] == pytest.approx(model.variance)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_monotonically_decreasing(self, model):
        h = np.linspace(0, 50, 200)
        values = model(h)
        assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_non_negative(self, model):
        h = np.linspace(0, 100, 500)
        assert np.all(model(h) >= -1e-12)


class TestSquaredExponential:
    def test_correlation_at_range_is_1_over_e(self):
        model = SquaredExponentialCovariance(range=10.0, variance=1.0)
        assert model(np.array([10.0]))[0] == pytest.approx(np.exp(-1.0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SquaredExponentialCovariance(range=-1.0)
        with pytest.raises(ValueError):
            SquaredExponentialCovariance(variance=0.0)

    @given(st.floats(min_value=0.5, max_value=100.0), st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_variance_property(self, rng_, h):
        model = SquaredExponentialCovariance(range=rng_, variance=1.0)
        value = model(np.array([h]))[0]
        assert 0.0 <= value <= 1.0


class TestMixture:
    def test_equal_weights_by_default(self):
        mix = MixtureCovariance(
            [SquaredExponentialCovariance(range=2.0), SquaredExponentialCovariance(range=20.0)]
        )
        assert mix.weights == (0.5, 0.5)

    def test_variance_is_weighted_sum(self):
        mix = MixtureCovariance(
            [
                SquaredExponentialCovariance(range=2.0, variance=1.0),
                SquaredExponentialCovariance(range=20.0, variance=3.0),
            ],
            weights=[0.25, 0.75],
        )
        assert mix.variance == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)

    def test_rejects_empty_and_bad_weights(self):
        with pytest.raises(ValueError):
            MixtureCovariance([])
        with pytest.raises(ValueError):
            MixtureCovariance([SquaredExponentialCovariance()], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            MixtureCovariance([SquaredExponentialCovariance()], weights=[-1.0])
