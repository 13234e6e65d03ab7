"""Tests for the shared block-codec engine (repro.compressors.blocks).

Includes equivalence regression tests that pin the vectorized engine
against straightforward scalar reference implementations (per-element
Python loops), plus literal golden arrays for a small deterministic input,
so future refactors of the hot paths are provably behavior-preserving.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.blocks import (
    DEFAULT_CODE_RADIUS,
    MODE_LORENZO,
    MODE_REGRESSION,
    BlockCodec,
    fit_block_planes,
    lorenzo_reconstruct,
    lorenzo_residuals,
    merge_field,
    merge_unpredictable,
    partition_field,
    plane_predictions,
    quantize_to_grid,
    select_block_modes,
    split_unpredictable,
)


# ----------------------------------------------------------------------
# scalar reference implementations (deliberately naive loops)
# ----------------------------------------------------------------------
def scalar_lorenzo_residuals(code_blocks: np.ndarray) -> np.ndarray:
    nbi, nbj, bs, _ = code_blocks.shape
    out = np.zeros_like(code_blocks)
    for a in range(nbi):
        for b in range(nbj):
            for i in range(bs):
                for j in range(bs):
                    up = code_blocks[a, b, i - 1, j] if i > 0 else 0
                    left = code_blocks[a, b, i, j - 1] if j > 0 else 0
                    diag = code_blocks[a, b, i - 1, j - 1] if i > 0 and j > 0 else 0
                    out[a, b, i, j] = code_blocks[a, b, i, j] - up - left + diag
    return out


class TestPartitionMerge:
    def test_roundtrip_multiple(self):
        field = np.arange(64, dtype=np.float64).reshape(8, 8)
        blocks_, shape = partition_field(field, 4)
        assert blocks_.shape == (2, 2, 4, 4)
        np.testing.assert_array_equal(merge_field(blocks_, shape), field)

    def test_roundtrip_non_multiple(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(10, 13))
        blocks_, shape = partition_field(field, 4)
        assert blocks_.shape == (3, 4, 4, 4)
        assert shape == (10, 13)
        np.testing.assert_array_equal(merge_field(blocks_, shape), field)

    def test_padding_replicates_edges(self):
        field = np.ones((3, 3))
        blocks_, _ = partition_field(field, 4)
        np.testing.assert_array_equal(blocks_[0, 0], np.ones((4, 4)))


class TestLorenzoEquivalence:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(-500, 500, size=(3, 2, 6, 6))
        np.testing.assert_array_equal(
            lorenzo_residuals(codes), scalar_lorenzo_residuals(codes)
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(-(2**40), 2**40, size=(2, 3, 8, 8))
        np.testing.assert_array_equal(
            lorenzo_reconstruct(lorenzo_residuals(codes)), codes
        )

    def test_golden_residuals(self):
        codes = np.array([[[[3, 5], [7, 11]]]], dtype=np.int64)
        expected = np.array([[[[3, 2], [4, 2]]]], dtype=np.int64)
        np.testing.assert_array_equal(lorenzo_residuals(codes), expected)


class TestQuantizeToGrid:
    def test_roundtrip_within_half_step(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(16, 16))
        step = 2e-3
        codes = quantize_to_grid(values, step)
        assert codes is not None
        assert np.abs(codes * step - values).max() <= step / 2 * (1 + 1e-12)

    def test_overflow_returns_none(self):
        assert quantize_to_grid(np.array([[1e30]]), 1e-9) is None

    def test_non_finite_returns_none(self):
        assert quantize_to_grid(np.array([[np.inf, 1.0]]), 1e-3) is None
        assert quantize_to_grid(np.array([[np.nan]]), 1e-3) is None

    def test_golden_codes(self):
        values = np.array([[0.25, -0.25, 0.5, 0.124]])
        codes = quantize_to_grid(values, 0.25)
        np.testing.assert_array_equal(codes, [[1, -1, 2, 0]])


class TestCodeRadius:
    def test_default_radius_matches_sz(self):
        assert DEFAULT_CODE_RADIUS == 2**15


class TestModeSelection:
    def test_single_candidate_takes_its_mode(self):
        residuals = np.zeros((2, 2, 4, 4), dtype=np.int64)
        modes, out = select_block_modes({"lorenzo": residuals})
        assert (modes == MODE_LORENZO).all()
        np.testing.assert_array_equal(out, residuals)
        modes, _ = select_block_modes({"regression": residuals})
        assert (modes == MODE_REGRESSION).all()

    def test_cheaper_candidate_wins(self):
        cheap = np.zeros((1, 2, 4, 4), dtype=np.int64)
        costly = np.full((1, 2, 4, 4), 1000, dtype=np.int64)
        # Regression residuals tiny, lorenzo residuals huge -> regression
        # wins despite its coefficient overhead.
        modes, out = select_block_modes({"lorenzo": costly, "regression": cheap})
        assert (modes == MODE_REGRESSION).all()
        np.testing.assert_array_equal(out, cheap)
        # And the reverse: tiny lorenzo beats tiny regression because of
        # the flat overhead charged to regression blocks.
        modes, _ = select_block_modes({"lorenzo": cheap, "regression": cheap})
        assert (modes == MODE_LORENZO).all()


class TestUnpredictableChannel:
    def test_split_merge_roundtrip(self):
        rng = np.random.default_rng(5)
        residuals = rng.integers(-50, 50, size=(4, 36))
        residuals[1, 3] = 1000
        residuals[2, 0] = -999
        symbols, outliers = split_unpredictable(residuals, 100)
        assert (symbols >= 0).all()
        np.testing.assert_array_equal(outliers, [1000, -999])
        merged = merge_unpredictable(symbols, outliers, 100)
        np.testing.assert_array_equal(merged, residuals)

    def test_outliers_keep_scan_order(self):
        residuals = np.array([[100, -200, 5, 300]])
        symbols, outliers = split_unpredictable(residuals, 10)
        np.testing.assert_array_equal(outliers, [100, -200, 300])
        np.testing.assert_array_equal(symbols[0], [0, 0, 16, 0])


class TestBlockCodec:
    def test_roundtrip_respects_bound(self, smooth_field):
        codec = BlockCodec(1e-3, block_size=16)
        enc = codec.encode(smooth_field)
        assert enc is not None
        decoded = codec.decode(
            enc.modes, enc.symbols, enc.outliers, enc.coeff_codes, enc.original_shape
        )
        assert np.abs(decoded - smooth_field).max() <= 1e-3 * (1 + 1e-12)
        np.testing.assert_allclose(decoded, enc.reconstruction)

    def test_overflow_returns_none(self):
        codec = BlockCodec(1e-12, block_size=4)
        assert codec.encode(np.full((4, 4), 1e30)) is None

    def test_single_predictor_variants(self, smooth_field):
        for predictors in (("lorenzo",), ("regression",)):
            codec = BlockCodec(1e-3, block_size=16, predictors=predictors)
            enc = codec.encode(smooth_field)
            decoded = codec.decode(
                enc.modes, enc.symbols, enc.outliers, enc.coeff_codes, enc.original_shape
            )
            assert np.abs(decoded - smooth_field).max() <= 1e-3 * (1 + 1e-12)

    def test_matches_grid_quantization_exactly(self):
        # The codec's reconstruction is exactly the field pre-quantized
        # onto the 2*eb grid (the engine's core invariant).
        rng = np.random.default_rng(6)
        field = rng.normal(size=(20, 25))
        bound = 5e-3
        codec = BlockCodec(bound, block_size=8)
        enc = codec.encode(field)
        q = np.rint(field / (2 * bound))
        np.testing.assert_allclose(enc.reconstruction, q * 2 * bound)

    def test_golden_small_field(self):
        # Literal pin of the full engine output for a tiny deterministic
        # input: a 2x2-blocked constant-slope field with one outlier.
        field = np.array(
            [
                [0.0, 0.1, 0.2, 0.3],
                [0.1, 0.2, 0.3, 0.4],
                [0.2, 0.3, 0.4, 50.0],
                [0.3, 0.4, 0.5, 0.6],
            ]
        )
        codec = BlockCodec(0.05, block_size=2, predictors=("lorenzo",), code_radius=100)
        enc = codec.encode(field)
        assert enc.n_blocks == (2, 2)
        assert (enc.modes == MODE_LORENZO).all()
        q = np.rint(field / 0.1).astype(np.int64)
        np.testing.assert_array_equal(
            enc.reconstruction, q * 0.1
        )
        # Lorenzo residuals of the pre-quantized codes, one row per block
        # (raveled scan order): the smooth blocks reduce to their corner
        # code plus first-row/column deltas, the block containing 50.0
        # carries the two out-of-radius residuals 496 and -495.
        expected_residuals = np.array(
            [
                [0, 1, 1, 0],
                [2, 1, 1, 0],
                [2, 1, 1, 0],
                [4, 496, 1, -495],
            ]
        )
        got = merge_unpredictable(enc.symbols, enc.outliers, 100).reshape(4, 4)
        np.testing.assert_array_equal(got, expected_residuals)
        np.testing.assert_array_equal(enc.outliers, [496, -495])

    def test_decode_missing_coefficients_raises(self):
        codec = BlockCodec(1e-3, block_size=4)
        modes = np.full((1, 1), MODE_REGRESSION, dtype=np.int64)
        symbols = np.full((1, 16), DEFAULT_CODE_RADIUS + 1, dtype=np.int64)
        with pytest.raises(ValueError):
            codec.decode(modes, symbols, np.empty(0, np.int64), None, (4, 4))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BlockCodec(1e-3, block_size=1)
        with pytest.raises(ValueError):
            BlockCodec(1e-3, predictors=())
        with pytest.raises(ValueError):
            BlockCodec(1e-3, predictors=("nope",))
        with pytest.raises(ValueError):
            BlockCodec(1e-3, code_radius=0)


class TestRegressionPredictorViaEngine:
    def test_plane_fit_recovers_exact_plane(self):
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        block = (1.5 + 2.0 * ii - 0.5 * jj)[None, None]
        coeffs = fit_block_planes(block)
        np.testing.assert_allclose(coeffs[0, 0], [1.5, 2.0, -0.5], atol=1e-10)
        preds = plane_predictions(coeffs, 8)
        np.testing.assert_allclose(preds, block, atol=1e-10)
