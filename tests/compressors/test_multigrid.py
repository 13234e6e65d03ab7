"""Tests for repro.compressors.multigrid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.multigrid import (
    decompose,
    detail_mask,
    max_levels,
    prolong,
    restrict,
)
from tests.reference.multigrid import reconstruct


class TestHierarchyHelpers:
    def test_max_levels_respects_min_size(self):
        assert max_levels((64, 64), min_size=4) >= 3
        # 7 -> 4 is allowed (coarse grid still >= min_size), 5 -> 3 is not.
        assert max_levels((7, 7), min_size=4) == 1
        assert max_levels((5, 5), min_size=4) == 0

    def test_restrict_takes_even_indices(self):
        field = np.arange(36, dtype=float).reshape(6, 6)
        coarse = restrict(field)
        np.testing.assert_array_equal(coarse, field[::2, ::2])

    def test_detail_mask_excludes_coarse_points(self):
        mask = detail_mask((6, 6))
        assert not mask[::2, ::2].any()
        assert mask.sum() == 36 - 9


class TestProlong:
    def test_exact_at_coarse_points(self):
        coarse = np.random.default_rng(0).normal(size=(5, 5))
        fine = prolong(coarse, (9, 9))
        np.testing.assert_allclose(fine[::2, ::2], coarse, atol=1e-12)

    def test_linear_function_reproduced_exactly(self):
        ii, jj = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
        fine_truth = 2.0 + 0.5 * ii - 0.3 * jj
        coarse = fine_truth[::2, ::2]
        np.testing.assert_allclose(prolong(coarse, (9, 9)), fine_truth, atol=1e-12)

    def test_max_principle(self):
        coarse = np.random.default_rng(1).normal(size=(4, 6))
        fine = prolong(coarse, (8, 12))
        assert fine.max() <= coarse.max() + 1e-12
        assert fine.min() >= coarse.min() - 1e-12

    def test_odd_and_even_fine_shapes(self):
        coarse = np.random.default_rng(2).normal(size=(5, 4))
        assert prolong(coarse, (9, 7)).shape == (9, 7)
        assert prolong(coarse, (10, 8)).shape == (10, 8)


class TestDecomposeReconstruct:
    @pytest.mark.parametrize("shape", [(32, 32), (33, 47), (64, 40)])
    def test_roundtrip_exact(self, shape):
        field = np.random.default_rng(3).normal(size=shape)
        decomposition = decompose(field, levels=3)
        np.testing.assert_allclose(reconstruct(decomposition), field, atol=1e-10)

    def test_smooth_field_has_small_details(self, smooth_field, rough_field):
        smooth_details = decompose(smooth_field, 2).details[0]
        rough_details = decompose(rough_field, 2).details[0]
        assert np.abs(smooth_details).mean() < np.abs(rough_details).mean()

    def test_levels_clamped_to_available(self):
        field = np.random.default_rng(4).normal(size=(16, 16))
        decomposition = decompose(field, levels=10)
        assert decomposition.n_levels == max_levels((16, 16))

    def test_zero_levels_is_identity(self):
        field = np.random.default_rng(5).normal(size=(8, 8))
        decomposition = decompose(field, levels=0)
        assert decomposition.n_levels == 0
        np.testing.assert_array_equal(reconstruct(decomposition), field)

    def test_shapes_list_is_consistent(self):
        field = np.zeros((40, 24))
        decomposition = decompose(field, levels=2)
        assert decomposition.shapes[0] == (40, 24)
        assert decomposition.shapes[1] == (20, 12)
        assert decomposition.shapes[2] == (10, 6)

    @given(
        rows=st.integers(min_value=9, max_value=40),
        cols=st.integers(min_value=9, max_value=40),
        levels=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows, cols, levels):
        field = np.random.default_rng(rows * 100 + cols).normal(size=(rows, cols))
        np.testing.assert_allclose(reconstruct(decompose(field, levels)), field, atol=1e-9)
