"""Tests for repro.datasets.registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import DatasetRegistry, default_registry


class TestDatasetRegistry:
    def test_register_and_create(self):
        registry = DatasetRegistry()
        registry.register("toy", lambda seed: [("only", np.zeros((4, 4)))])
        assert "toy" in registry.names()
        fields = registry.create("toy")
        assert fields[0][0] == "only"

    def test_duplicate_registration_rejected(self):
        registry = DatasetRegistry()
        registry.register("toy", lambda seed: [])
        with pytest.raises(KeyError):
            registry.register("toy", lambda seed: [])
        registry.register("toy", lambda seed: [("x", np.ones((2, 2)))], overwrite=True)
        assert registry.create("toy")[0][0] == "x"

    def test_unknown_dataset_raises_with_known_names(self):
        registry = DatasetRegistry()
        with pytest.raises(KeyError, match="known datasets"):
            registry.create("nope")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            DatasetRegistry().register("", lambda seed: [])


class TestDefaultRegistry:
    def test_contains_paper_datasets(self):
        registry = default_registry()
        assert {"gaussian-single", "gaussian-multi", "miranda"} <= set(registry.names())
        # Future-work extension workload is also registered by default.
        assert "gaussian-nonstationary" in registry.names()

    def test_gaussian_single_fields_are_labelled_and_2d(self):
        registry = default_registry(gaussian_shape=(64, 64))
        fields = registry.create("gaussian-single", seed=0)
        assert len(fields) >= 4
        for label, field in fields:
            assert label.startswith("gaussian-single")
            assert field.shape == (64, 64)

    def test_deterministic_given_seed(self):
        registry = default_registry(gaussian_shape=(32, 32), miranda_shape=(8, 32, 32))
        a = registry.create("gaussian-multi", seed=1)
        b = registry.create("gaussian-multi", seed=1)
        for (la, fa), (lb, fb) in zip(a, b):
            assert la == lb
            np.testing.assert_array_equal(fa, fb)

    def test_miranda_fields_shape(self):
        registry = default_registry(miranda_shape=(8, 48, 48))
        fields = registry.create("miranda", seed=0)
        for label, field in fields:
            assert label.startswith("miranda")
            assert field.shape == (48, 48)
