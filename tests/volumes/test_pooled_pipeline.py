"""Pooled pipeline equivalence: process-pool runs, whose tasks carry
their tiles and halo planes by value, must produce bit-identical tiles
and reconstructions to the serial path (halo on and off) and keep trace
spans flowing across the worker boundary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.miranda import generate_miranda_like_volume
from repro.obs.trace import Tracer, install_tracer
from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import compress_volume, decompress_volume

BOUND = 1e-3
PARALLEL = ParallelConfig(workers=2)


@pytest.fixture(scope="module")
def volume() -> np.ndarray:
    return generate_miranda_like_volume((24, 24, 24), seed=11)


def _tile_bytes(compressed):
    return [
        (t.offset, t.compressed.data)
        for t in sorted(compressed.tiles, key=lambda t: t.offset)
    ]


@pytest.mark.parametrize("halo", [False, True], ids=["grid", "halo"])
class TestBitIdentity:
    def test_compress_matches_serial(self, volume, halo):
        serial = compress_volume(
            volume, "sz", BOUND, tile_shape=(12, 12, 12), halo=halo, cache=False
        )
        pooled = compress_volume(
            volume,
            "sz",
            BOUND,
            tile_shape=(12, 12, 12),
            halo=halo,
            parallel=PARALLEL,
            cache=False,
        )
        assert _tile_bytes(pooled) == _tile_bytes(serial)

    def test_decompress_matches_serial(self, volume, halo):
        compressed = compress_volume(
            volume, "sz", BOUND, tile_shape=(12, 12, 12), halo=halo, cache=False
        )
        serial = decompress_volume(compressed)
        parallel = decompress_volume(compressed, parallel=PARALLEL)
        np.testing.assert_array_equal(parallel, serial)


class TestWavefrontDecode:
    def test_uneven_tiles(self, volume):
        compressed = compress_volume(
            volume[:20, :17, :24],
            "sz",
            BOUND,
            tile_shape=(8, 8, 8),
            halo=True,
            cache=False,
        )
        np.testing.assert_array_equal(
            decompress_volume(compressed, parallel=PARALLEL),
            decompress_volume(compressed),
        )

    def test_serial_config_matches_default(self, volume):
        compressed = compress_volume(
            volume, "sz", BOUND, tile_shape=(12, 12, 12), cache=False
        )
        np.testing.assert_array_equal(
            decompress_volume(compressed, parallel=ParallelConfig(workers=1)),
            decompress_volume(compressed),
        )


class TestTracingAcrossWorkerBoundary:
    def test_compress_spans_reparent(self, volume):
        tracer = Tracer()
        with install_tracer(tracer):
            compress_volume(
                volume,
                "sz",
                BOUND,
                tile_shape=(12, 12, 12),
                halo=True,
                parallel=PARALLEL,
                cache=False,
            )
        spans = tracer.spans()
        root = [s for s in spans if s.parent_id is None]
        assert [s.name for s in root] == ["volume.compress"]
        tiles = [s for s in spans if s.name == "volume.tile"]
        assert len(tiles) == 8
        assert all(t.lane.startswith("wave") for t in tiles)

    def test_decode_spans(self, volume):
        compressed = compress_volume(
            volume, "sz", BOUND, tile_shape=(12, 12, 12), halo=True, cache=False
        )
        tracer = Tracer()
        with install_tracer(tracer):
            decompress_volume(compressed, parallel=PARALLEL)
        names = [s.name for s in tracer.spans()]
        assert "volume.decompress" in names
        assert "volume.wave" in names
        assert names.count("volume.tile.decode") == 8
