"""3D (volume) round-trip tests for the sz/zfp/mgard volume modes.

Covers the new-subsystem acceptance surface: property round-trips under
the error bound, degenerate volumes (constant, tiny, negligible), NaN
handling, container dispatch, and two golden pins — a 3D golden npz for
the new volume containers and a 2D golden-equivalence set proving the
N-d engine refactor left the existing 2D formats bit-identical.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.base import CompressorError
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.registry import make_compressor
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.datasets.miranda import generate_miranda_like_volume

_DATA = pathlib.Path(__file__).parent / "data"

_COMPRESSORS = ("sz", "zfp", "mgard")


def _roundtrip(name: str, volume: np.ndarray, bound: float) -> np.ndarray:
    codec = make_compressor(name, bound)
    compressed = codec.compress(volume)
    decompressed = codec.decompress(compressed)
    assert decompressed.shape == volume.shape
    assert np.abs(decompressed - volume).max() <= bound * (1 + 1e-9)
    return decompressed


class TestVolumeRoundTrips:
    @pytest.mark.parametrize("name", _COMPRESSORS)
    @pytest.mark.parametrize("bound", [1e-5, 1e-3, 1e-1])
    def test_miranda_volume_within_bound(self, name, bound):
        volume = generate_miranda_like_volume((16, 20, 24), seed=1)
        _roundtrip(name, volume, bound)

    @pytest.mark.parametrize("name", _COMPRESSORS)
    def test_non_multiple_shape(self, name):
        volume = np.random.default_rng(0).normal(size=(13, 22, 9))
        _roundtrip(name, volume, 1e-3)

    @pytest.mark.parametrize("name", _COMPRESSORS)
    def test_constant_volume(self, name):
        volume = np.full((12, 12, 12), -3.25)
        decompressed = _roundtrip(name, volume, 1e-4)
        np.testing.assert_allclose(decompressed, volume, atol=1e-4)

    @pytest.mark.parametrize("name", _COMPRESSORS)
    def test_tiny_volume(self, name):
        volume = np.random.default_rng(1).normal(size=(2, 3, 2))
        _roundtrip(name, volume, 1e-3)

    @pytest.mark.parametrize("name", _COMPRESSORS)
    def test_negligible_magnitude_volume(self, name):
        volume = np.random.default_rng(2).normal(size=(8, 8, 8)) * 1e-9
        codec = make_compressor(name, 1e-3)
        compressed = codec.compress(volume)
        _ = codec.decompress(compressed)
        assert compressed.compression_ratio > 10

    @pytest.mark.parametrize("name", _COMPRESSORS)
    def test_reconstruction_byproduct_matches_decompress(self, name):
        volume = generate_miranda_like_volume((12, 16, 12), seed=3)
        codec = make_compressor(name, 1e-3)
        compressed = codec.compress(volume)
        if compressed.reconstruction is not None:
            np.testing.assert_allclose(
                codec.decompress(compressed), compressed.reconstruction, atol=1e-12
            )

    @given(
        nz=st.integers(min_value=2, max_value=12),
        ny=st.integers(min_value=2, max_value=12),
        nx=st.integers(min_value=2, max_value=12),
        bound_exp=st.integers(min_value=-5, max_value=-1),
        name=st.sampled_from(_COMPRESSORS),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, nz, ny, nx, bound_exp, name):
        volume = np.random.default_rng(nz * 289 + ny * 17 + nx).normal(
            size=(nz, ny, nx)
        )
        _roundtrip(name, volume, 10.0**bound_exp)


class TestVolumeEdgeCases:
    def test_sz_nan_routes_to_raw_fallback(self):
        volume = np.ones((6, 6, 6))
        volume[1, 2, 3] = np.nan
        codec = SZCompressor(1e-3)
        compressed = codec.compress(volume)
        assert compressed.extras.get("raw_fallback") == 1.0
        out = codec.decompress(compressed)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(volume))

    def test_zfp_rejects_non_finite(self):
        volume = np.ones((6, 6, 6))
        volume[0, 0, 0] = np.inf
        with pytest.raises(CompressorError):
            ZFPCompressor(1e-3).compress(volume)

    def test_mgard_rejects_non_finite(self):
        volume = np.ones((6, 6, 6))
        volume[5, 5, 5] = np.nan
        with pytest.raises(CompressorError):
            MGARDCompressor(1e-3).compress(volume)

    def test_sz_extreme_magnitude_falls_back(self):
        volume = np.random.default_rng(3).normal(size=(6, 6, 6)) * 1e300
        codec = SZCompressor(1e-12)
        compressed = codec.compress(volume)
        np.testing.assert_array_equal(codec.decompress(compressed), volume)

    def test_zfp_extreme_magnitude_within_bound(self):
        volume = np.random.default_rng(4).normal(size=(8, 8, 8)) * 1e300
        codec = ZFPCompressor(1.0)
        compressed = codec.compress(volume)
        assert np.abs(codec.decompress(compressed) - volume).max() <= 1.0 * (1 + 1e-9)

    def test_containers_are_cross_rejected(self):
        volume = np.random.default_rng(5).normal(size=(6, 6, 6))
        sz_blob = SZCompressor(1e-3).compress(volume)
        with pytest.raises(CompressorError):
            ZFPCompressor(1e-3).decompress(sz_blob)
        with pytest.raises(CompressorError):
            MGARDCompressor(1e-3).decompress(sz_blob)

    def test_4d_rejected(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-3).compress(np.zeros((2, 2, 2, 2)))

    def test_sz_3d_block_size_option(self):
        volume = generate_miranda_like_volume((12, 12, 12), seed=6)
        codec = SZCompressor(1e-3, block_size_3d=4)
        assert codec._codec_3d.block_size == 4
        _ = codec.decompress(codec.compress(volume))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_zfp_container_is_self_describing_for_block_size(self, ndim):
        """A default-configured decoder must honour the block size stored
        in the container (the dequantization step depends on it)."""

        shape = (24, 24) if ndim == 2 else (16, 16, 16)
        field = np.random.default_rng(8).normal(size=shape)
        bound = 1e-3
        compressed = ZFPCompressor(bound, block_size=8).compress(field)
        decompressed = ZFPCompressor(bound).decompress(compressed)
        assert np.abs(decompressed - field).max() <= bound * (1 + 1e-9)


class TestVolumeGolden:
    """Pin the 3D containers (bytes and reconstructions) so future
    refactors of the volume path are provably behaviour-preserving."""

    @pytest.fixture(scope="class")
    def golden(self):
        with np.load(_DATA / "volume_golden.npz") as data:
            return {key: data[key] for key in data.files}

    @pytest.mark.parametrize("name", _COMPRESSORS)
    @pytest.mark.parametrize("bound", [1e-4, 1e-2])
    def test_bytes_and_reconstruction_match(self, golden, name, bound):
        codec = make_compressor(name, bound)
        compressed = codec.compress(golden["volume"])
        np.testing.assert_array_equal(
            np.frombuffer(compressed.data, dtype=np.uint8),
            golden[f"{name}_bytes_{bound:.0e}"],
        )
        np.testing.assert_array_equal(
            codec.decompress(compressed), golden[f"{name}_recon_{bound:.0e}"]
        )


class TestNdRefactorGolden2D:
    """The N-d engine refactor must leave the existing 2D formats
    bit-identical: SZ container bytes and SZ/MGARD reconstructions were
    recorded with the pre-refactor (2D-only) implementation."""

    @pytest.fixture(scope="class")
    def golden(self):
        with np.load(_DATA / "nd_refactor_golden.npz") as data:
            return {key: data[key] for key in data.files}

    @pytest.mark.parametrize("bound", [1e-4, 1e-2])
    @pytest.mark.parametrize("prefix", ["", "rough_"])
    def test_sz_container_bytes_unchanged(self, golden, bound, prefix):
        field = golden["field"] if prefix == "" else golden["rough"]
        compressed = SZCompressor(bound).compress(field)
        np.testing.assert_array_equal(
            np.frombuffer(compressed.data, dtype=np.uint8),
            golden[f"sz_{prefix}bytes_{bound:.0e}"],
        )

    @pytest.mark.parametrize("bound", [1e-4, 1e-2])
    @pytest.mark.parametrize("prefix", ["", "rough_"])
    def test_sz_reconstruction_unchanged(self, golden, bound, prefix):
        field = golden["field"] if prefix == "" else golden["rough"]
        codec = SZCompressor(bound)
        np.testing.assert_array_equal(
            codec.decompress(codec.compress(field)),
            golden[f"sz_{prefix}recon_{bound:.0e}"],
        )

    @pytest.mark.parametrize("bound", [1e-4, 1e-2])
    @pytest.mark.parametrize("prefix", ["", "rough_"])
    def test_mgard_reconstruction_unchanged(self, golden, bound, prefix):
        field = golden["field"] if prefix == "" else golden["rough"]
        codec = MGARDCompressor(bound)
        np.testing.assert_array_equal(
            codec.decompress(codec.compress(field)),
            golden[f"mgard_{prefix}recon_{bound:.0e}"],
        )
