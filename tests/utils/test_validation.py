"""Tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.validation import (
    ensure_2d,
    ensure_float_array,
    ensure_in,
    ensure_positive,
)


class TestEnsure2D:
    def test_passes_through_2d(self):
        arr = np.ones((3, 4))
        assert ensure_2d(arr) is arr

    def test_rejects_1d_and_3d(self):
        with pytest.raises(ValueError, match="must be 2D"):
            ensure_2d(np.ones(3))
        with pytest.raises(ValueError, match="must be 2D"):
            ensure_2d(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ensure_2d(np.empty((0, 3)))

    def test_converts_nested_lists(self):
        out = ensure_2d([[1, 2], [3, 4]])
        assert out.shape == (2, 2)


class TestEnsureFloatArray:
    def test_promotes_integers(self):
        out = ensure_float_array(np.array([[1, 2]], dtype=np.int32))
        assert out.dtype == np.float64

    def test_rejects_complex(self):
        with pytest.raises(TypeError, match="real-valued"):
            ensure_float_array(np.array([1 + 2j]))

    def test_preserves_values(self):
        data = np.array([[1.5, -2.25]])
        np.testing.assert_array_equal(ensure_float_array(data), data)


class TestEnsurePositive:
    def test_accepts_positive(self):
        assert ensure_positive(3.5) == 3.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError):
            ensure_positive(0.0)

    def test_accepts_zero_when_not_strict(self):
        assert ensure_positive(0.0, strict=False) == 0.0

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            ensure_positive(-1.0)
        with pytest.raises(ValueError):
            ensure_positive(float("nan"))
        with pytest.raises(ValueError):
            ensure_positive(float("inf"))


class TestEnsureIn:
    def test_accepts_member(self):
        assert ensure_in("a", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="must be one of"):
            ensure_in("c", ("a", "b"))
