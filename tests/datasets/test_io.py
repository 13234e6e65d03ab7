"""Tests for repro.datasets.io."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.io import load_field, load_raw


class TestRawIO:
    def test_roundtrip_float32(self, tmp_path):
        field = np.random.default_rng(0).normal(size=(12, 18)).astype(np.float32)
        path = tmp_path / "field.raw"
        field.astype("<f4").tofile(path)
        loaded = load_raw(path, (12, 18), dtype="float32")
        np.testing.assert_allclose(loaded, field, rtol=1e-6)

    def test_roundtrip_float64(self, tmp_path):
        field = np.random.default_rng(1).normal(size=(7, 9))
        path = tmp_path / "field64.raw"
        field.astype("<f8").tofile(path)
        loaded = load_raw(path, (7, 9), dtype="float64")
        np.testing.assert_array_equal(loaded, field)

    def test_wrong_shape_raises(self, tmp_path):
        field = np.zeros((4, 4), dtype=np.float32)
        path = tmp_path / "bad.raw"
        field.astype("<f4").tofile(path)
        with pytest.raises(ValueError, match="expected"):
            load_raw(path, (5, 5), dtype="float32")

    def test_3d_volume_roundtrip(self, tmp_path):
        volume = np.random.default_rng(2).normal(size=(3, 4, 5)).astype(np.float32)
        path = tmp_path / "vol.raw"
        volume.astype("<f4").tofile(path)
        loaded = load_raw(path, (3, 4, 5), dtype="float32")
        np.testing.assert_allclose(loaded, volume, rtol=1e-6)


class TestNpyIO:
    def test_roundtrip(self, tmp_path):
        field = np.random.default_rng(3).normal(size=(10, 11))
        path = tmp_path / "field.npy"
        np.save(path, field)
        np.testing.assert_array_equal(load_field(path), field)
