"""One tile worker pair: volumes and stores code and decode the same way.

:mod:`repro.compressors.tiles` holds the only encode and decode workers
any tiled path submits, so a halo-off volume and a store with the same
codec, tile edge and no chunk statistics hold byte-identical payloads.
The workers' own contract (what a lending tile returns, the raw
fallback, the corruption checks) and the halo rule are tested directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.halo import reconstruction_faces
from repro.compressors.tiles import (
    RAW_CODEC,
    DecodeTask,
    EncodeTask,
    borrowed_halo,
    decode_tile,
    encode_tile,
)
from repro.datasets.miranda import generate_miranda_like_volume
from repro.store.array_store import ArrayStore
from repro.store.format import StoreCorruptionError
from repro.store.snapshot import StoreSnapshot
from repro.utils.schedule import TilePlan
from repro.volumes.pipeline import compress_volume, decompress_volume


@pytest.fixture(scope="module")
def volume() -> np.ndarray:
    return generate_miranda_like_volume((64, 64, 64), seed=0)


@pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
def test_volume_tiles_are_store_chunks(volume, codec, tmp_path):
    compressed = compress_volume(volume, codec, 1e-3, tile_shape=(32, 32, 32))
    store = ArrayStore.create(
        tmp_path / "s", chunk_shape=32, codec=f"fixed:{codec}", chunk_stats=False
    )
    store.write(volume)
    snapshot = StoreSnapshot.open(store.path)
    with snapshot.payload_reader() as fetch:
        chunks = {
            tuple(entry["offset"]): fetch(record)
            for entry, record in zip(snapshot.meta["chunks"], snapshot.index)
        }
    assert {tile.offset: tile.compressed.data for tile in compressed.tiles} == chunks
    np.testing.assert_array_equal(decompress_volume(compressed), store.read())


def _field(shape=(16, 16, 16), seed=3) -> np.ndarray:
    return generate_miranda_like_volume(shape, seed=seed)


def _encode(tile, codecs=("sz",), *, lends=False, chunk_stats=False, exact_rows=0):
    return encode_tile(
        EncodeTask(tile, 1e-3, tuple(codecs), chunk_stats, exact_rows, None, lends)
    )


def _decode(encoded, extent, *, lends=False, payload=None):
    compressed = encoded.compressed
    return decode_tile(
        DecodeTask(
            compressed.data if payload is None else payload,
            compressed.compressor,
            tuple(extent),
            compressed.error_bound,
            None,
            lends,
        )
    )


class TestEncodeTile:
    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    def test_lending_tile_faces_match_the_decoded_tile(self, codec):
        # Encoder and decoder must hand borrowers the same planes: the
        # encode worker's faces are those of the values the decoder gets.
        tile = _field()
        encoded = _encode(tile, (codec,), lends=True)
        assert encoded.compressed.reconstruction is None
        assert encoded.compressed.entropy_context is None
        decoded = _decode(encoded, tile.shape, lends=True)
        faces = reconstruction_faces(decoded.values)
        assert sorted(encoded.faces) == sorted(faces) == [0, 1, 2]
        for axis, plane in faces.items():
            np.testing.assert_array_equal(encoded.faces[axis], plane)
        assert encoded.context is not None and decoded.context is not None

    def test_tile_that_does_not_lend_returns_no_faces(self):
        tile = _field()
        encoded = _encode(tile)
        assert encoded.faces == {} and encoded.context is None
        assert _decode(encoded, tile.shape).context is None

    def test_smallest_candidate_wins(self):
        tile = _field()
        sizes = {
            name: len(_encode(tile, (name,)).compressed.data)
            for name in ("sz", "zfp", "mgard")
        }
        winner = _encode(tile, ("sz", "zfp", "mgard")).compressed
        assert len(winner.data) == min(sizes.values())
        assert sizes[winner.compressor] == min(sizes.values())

    def test_lossy_exact_rows_fall_back_to_raw(self):
        tile = _field()
        encoded = _encode(tile, exact_rows=2)
        assert encoded.compressed.compressor == RAW_CODEC
        assert encoded.stats["max_abs_error"] == 0.0
        np.testing.assert_array_equal(_decode(encoded, tile.shape).values, tile)

    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    def test_max_abs_error_is_the_decoded_tiles_error(self, codec):
        # The codec measures it once; it must be the error a reader sees.
        tile = _field()
        encoded = _encode(tile, (codec,))
        values = _decode(encoded, tile.shape).values
        assert encoded.stats["max_abs_error"] == float(np.abs(values - tile).max())

    def test_chunk_stats_switch(self):
        tile = _field()
        assert set(_encode(tile).stats) == {"max_abs_error"}
        stats = _encode(tile, chunk_stats=True).stats
        assert set(stats) == {"mean", "std", "variogram_range", "max_abs_error"}
        assert stats["mean"] == pytest.approx(tile.mean())
        assert 0.0 < stats["max_abs_error"] <= 1e-3


class TestDecodeTile:
    def test_payload_may_be_read_on_demand(self):
        tile = _field()
        encoded = _encode(tile)
        eager = _decode(encoded, tile.shape).values
        lazy = _decode(encoded, tile.shape, payload=lambda: encoded.compressed.data)
        np.testing.assert_array_equal(lazy.values, eager)

    def test_short_raw_payload_is_corruption(self):
        encoded = _encode(_field(), exact_rows=2)
        with pytest.raises(StoreCorruptionError, match="raw chunk payload of 8 bytes"):
            _decode(encoded, (16, 16, 16), payload=encoded.compressed.data[:8])

    def test_payload_of_another_shape_is_corruption(self):
        encoded = _encode(_field())
        with pytest.raises(StoreCorruptionError, match="chunk decoded to shape"):
            _decode(encoded, (16, 16, 8))


class TestBorrowedHalo:
    def test_tile_without_lenders_borrows_nothing(self):
        plan = TilePlan.wavefront((4, 4), (2, 2))
        assert borrowed_halo(plan.tiles[0], {}) is None
        grid = TilePlan.wavefront((4, 4), (2, 2), halo=False)
        assert borrowed_halo(grid.tiles[3], {}) is None

    def test_planes_and_context_come_from_the_lenders(self):
        # Tile (2, 2) of a 2x2 grid takes its axis-0 plane from tile
        # (0, 2), its axis-1 plane from (2, 0), and the context of the
        # highest axis' lender, (2, 0).
        plan = TilePlan.wavefront((4, 4), (2, 2))
        faces = {
            index: {0: np.full(2, 10.0 * index), 1: np.full(2, 10.0 * index + 1)}
            for index in range(3)
        }
        lent = {index: (faces[index], f"context {index}") for index in range(3)}
        halo = borrowed_halo(plan.tiles[3], lent)
        np.testing.assert_array_equal(halo.planes[0], faces[1][0])
        np.testing.assert_array_equal(halo.planes[1], faces[2][1])
        assert halo.context == "context 2"
