"""Tests for repro.utils.blocking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.blocking import (
    block_view,
    pad_to_multiple,
    reassemble_blocks,
    window_starts,
)


class TestPadToMultiple:
    def test_already_multiple_is_returned_unchanged(self):
        field = np.arange(64, dtype=float).reshape(8, 8)
        padded, shape = pad_to_multiple(field, 4)
        assert padded is field
        assert shape == (8, 8)

    def test_padding_extends_to_next_multiple(self):
        field = np.ones((5, 7))
        padded, shape = pad_to_multiple(field, 4)
        assert padded.shape == (8, 8)
        assert shape == (5, 7)

    def test_edge_padding_replicates_border(self):
        field = np.arange(6, dtype=float).reshape(2, 3)
        padded, _ = pad_to_multiple(field, 4)
        assert padded[3, 0] == field[1, 0]
        assert padded[0, 3] == field[0, 2]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pad_to_multiple(np.ones(5), 4)


class TestBlockView:
    def test_shape_and_content(self):
        field = np.arange(64, dtype=float).reshape(8, 8)
        blocks = block_view(field, 4)
        assert blocks.shape == (2, 2, 4, 4)
        np.testing.assert_array_equal(blocks[0, 0], field[:4, :4])
        np.testing.assert_array_equal(blocks[1, 1], field[4:, 4:])

    def test_is_a_view(self):
        field = np.zeros((8, 8))
        blocks = block_view(field, 4)
        blocks[0, 0, 0, 0] = 42.0
        assert field[0, 0] == 42.0

    def test_rejects_non_multiple_shape(self):
        with pytest.raises(ValueError, match="not a multiple"):
            block_view(np.ones((6, 8)), 4)


class TestReassembleBlocks:
    def test_roundtrip_with_block_view(self):
        field = np.random.default_rng(0).normal(size=(12, 16))
        blocks = block_view(field, 4).copy()
        restored = reassemble_blocks(blocks, (12, 16))
        np.testing.assert_array_equal(restored, field)

    def test_crops_to_original_shape(self):
        field = np.random.default_rng(1).normal(size=(5, 7))
        padded, shape = pad_to_multiple(field, 4)
        blocks = block_view(padded, 4).copy()
        restored = reassemble_blocks(blocks, shape)
        assert restored.shape == (5, 7)
        np.testing.assert_array_equal(restored, field)

    def test_rejects_non_square_blocks(self):
        with pytest.raises(ValueError, match="square"):
            reassemble_blocks(np.ones((2, 2, 3, 4)), (6, 8))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            reassemble_blocks(np.ones((2, 3, 4)), (6, 8))

    @given(
        rows=st.integers(min_value=1, max_value=30),
        cols=st.integers(min_value=1, max_value=30),
        bs=st.sampled_from([2, 3, 4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_pad_blockview_reassemble_roundtrip_property(self, rows, cols, bs):
        field = np.random.default_rng(rows * 31 + cols).normal(size=(rows, cols))
        padded, shape = pad_to_multiple(field, bs)
        restored = reassemble_blocks(block_view(padded, bs).copy(), shape)
        np.testing.assert_array_equal(restored, field)


class TestWindowStarts:
    def test_complete_windows_only_by_default(self):
        assert window_starts(10, 4) == [0, 4]

    def test_include_partial_appends_tail(self):
        assert window_starts(10, 4, include_partial=True) == [0, 4, 8]

    def test_exact_fit(self):
        assert window_starts(8, 4) == [0, 4]
        assert window_starts(8, 4, include_partial=True) == [0, 4]

    def test_window_larger_than_length(self):
        assert window_starts(3, 8) == []
        assert window_starts(3, 8, include_partial=True) == [0]
