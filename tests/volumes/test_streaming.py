"""Streaming pipeline equivalence and .npy slab-source validation.

``compress_volume_stream`` / ``decompress_volume_stream`` must be
bit-identical to the one-shot pipeline for every schedule (serial,
process pool), halo on and off — the slab-major re-grouping of the
wavefront changes nothing the encoders see."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets.miranda import generate_miranda_like_volume
from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import compress_volume, decompress_volume
from repro.volumes.streaming import (
    compress_volume_stream,
    decompress_volume_stream,
    npy_volume_info,
    open_slab_source,
)

BOUND = 1e-3
TILE = (16, 16, 16)


@pytest.fixture(scope="module")
def volume() -> np.ndarray:
    # Deliberately not tile-aligned on any axis: 3/2.5/3.5 tiles.
    return generate_miranda_like_volume((48, 40, 56), seed=7)


@pytest.fixture(scope="module")
def volume_path(volume, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("stream") / "v.npy"
    np.save(path, volume)
    return str(path)


def _tile_bytes(compressed):
    return [
        (t.offset, t.compressed.data)
        for t in sorted(compressed.tiles, key=lambda t: t.offset)
    ]


class TestNpyVolumeInfo:
    def test_header_roundtrip(self, tmp_path):
        path = tmp_path / "v.npy"
        array = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        np.save(path, array)
        shape, dtype, offset = npy_volume_info(path)
        assert shape == (2, 3, 4)
        assert dtype == np.float32
        with open(path, "rb") as handle:
            handle.seek(offset)
            flat = np.fromfile(handle, dtype=dtype)
        np.testing.assert_array_equal(flat.reshape(shape), array)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.zeros((3, 4, 5))))
        with pytest.raises(ValueError, match="Fortran"):
            npy_volume_info(path)

    def test_non_3d_source_rejected(self, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.zeros((8, 8)))
        with pytest.raises(ValueError, match="3D"):
            open_slab_source(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "t.npy"
        np.save(path, np.zeros((6, 4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-64])
        source = open_slab_source(path)
        with pytest.raises(ValueError, match="truncated"):
            source.read(4, 2)


class TestSlabSources:
    def test_path_source_slabs(self, volume, volume_path):
        source = open_slab_source(volume_path)
        assert source.shape == volume.shape
        np.testing.assert_array_equal(source.read(32, 16), volume[32:48])
        # Final ragged slab.
        np.testing.assert_array_equal(source.read(40, 8), volume[40:48])


@pytest.mark.parametrize("halo", [False, True], ids=["grid", "halo"])
class TestBitIdentity:
    def test_path_source_matches_one_shot(self, volume, volume_path, halo):
        one_shot = compress_volume(
            volume, "sz", BOUND, tile_shape=TILE, halo=halo
        )
        streamed = compress_volume_stream(
            volume_path, "sz", BOUND, tile_shape=TILE, halo=halo
        )
        assert _tile_bytes(streamed) == _tile_bytes(one_shot)
        assert streamed.shape == one_shot.shape
        assert streamed.halo == one_shot.halo

    def test_streaming_decode_matches_one_shot(self, volume, halo):
        compressed = compress_volume(
            volume, "sz", BOUND, tile_shape=TILE, halo=halo
        )
        full = decompress_volume(compressed)
        slabs = list(decompress_volume_stream(compressed))
        assert [row for row, _ in slabs] == list(range(0, 48, 16))
        np.testing.assert_array_equal(np.concatenate([s for _, s in slabs]), full)


class TestParallelStreaming:
    def test_pool_matches_serial_stream(self, volume_path):
        serial = compress_volume_stream(
            volume_path, "sz", BOUND, tile_shape=TILE, halo=True
        )
        pooled = compress_volume_stream(
            volume_path,
            "sz",
            BOUND,
            tile_shape=TILE,
            halo=True,
            parallel=ParallelConfig(workers=2),
        )
        assert _tile_bytes(pooled) == _tile_bytes(serial)


class TestStreamedDecodeMemory:
    """A streamed decode holds one slab plus the faces and contexts the
    previous slab's tiles lent, whatever the volume depth: decoded tiles
    are written into the slab and only what they lend outlives the
    wave, until the last borrower is built."""

    @staticmethod
    def _decode_peak(depth: int) -> int:
        compressed = compress_volume(
            generate_miranda_like_volume((depth, 64, 64), seed=3),
            "sz",
            BOUND,
            tile_shape=TILE,
            halo=True,
        )
        tracemalloc.start()
        try:
            for _ in decompress_volume_stream(compressed):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_depth(self):
        one_slab = self._decode_peak(16)
        eight_slabs = self._decode_peak(128)
        assert eight_slabs < 2 * one_slab, (one_slab, eight_slabs)
