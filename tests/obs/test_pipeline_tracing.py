"""Trace round-trip through the volume pipeline: worker spans survive
the pool boundary and re-parent under the submitting wave span, for the
serial, process-pool and streaming paths, compress and decode alike."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.miranda import generate_miranda_like_volume
from repro.obs.trace import Tracer, install_tracer
from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import compress_volume, decompress_volume
from repro.volumes.streaming import compress_volume_stream, decompress_volume_stream

BOUND = 1e-3


@pytest.fixture(scope="module")
def volume() -> np.ndarray:
    return generate_miranda_like_volume((16, 16, 16), seed=3)


def _trace_compress(volume, *, parallel=None, halo=False) -> Tracer:
    tracer = Tracer()
    with install_tracer(tracer):
        compressed = compress_volume(
            volume,
            "sz",
            BOUND,
            tile_shape=(8, 8, 8),
            parallel=parallel,
            halo=halo,
            cache=False,
        )
    assert compressed.n_tiles == 8
    return tracer


def _assert_tree(tracer: Tracer, *, n_tiles: int) -> None:
    spans = tracer.spans()
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert [s.name for s in roots] == ["volume.compress"]

    waves = [s for s in spans if s.name == "volume.wave"]
    assert waves, "expected at least one wave span"
    assert {w.parent_id for w in waves} == {roots[0].span_id}

    tiles = [s for s in spans if s.name == "volume.tile"]
    assert len(tiles) == n_tiles
    wave_ids = {w.span_id for w in waves}
    assert {t.parent_id for t in tiles} <= wave_ids
    # Each tile runs on its own display lane, named after wave and slot.
    assert all(t.lane.startswith("wave") for t in tiles)

    tile_ids = {t.span_id for t in tiles}
    codec = [s for s in spans if s.name.startswith("codec.")]
    assert codec, "expected per-stage codec spans inside the tiles"
    for stage in codec:
        owner = by_id[stage.parent_id]
        while owner.name.startswith("codec."):
            owner = by_id[owner.parent_id]
        assert owner.span_id in tile_ids


class TestSerial:
    def test_grid_tree(self, volume):
        _assert_tree(_trace_compress(volume), n_tiles=8)

    def test_halo_tree_has_multiple_waves(self, volume):
        tracer = _trace_compress(volume, halo=True)
        _assert_tree(tracer, n_tiles=8)
        waves = {
            s.args.get("wave") for s in tracer.spans() if s.name == "volume.wave"
        }
        assert len(waves) > 1  # 2x2x2 wavefront order: waves 0..3


class TestProcessPool:
    def test_pool_spans_reparent(self, volume):
        tracer = _trace_compress(volume, parallel=ParallelConfig(workers=2))
        _assert_tree(tracer, n_tiles=8)

    def test_pool_halo_spans_reparent(self, volume):
        tracer = _trace_compress(
            volume, parallel=ParallelConfig(workers=2), halo=True
        )
        _assert_tree(tracer, n_tiles=8)


class TestDisabledPathUnchanged:
    def test_results_identical_with_and_without_tracing(self, volume):
        plain = compress_volume(
            volume, "sz", BOUND, tile_shape=(8, 8, 8), cache=False
        )
        tracer = Tracer()
        with install_tracer(tracer):
            traced = compress_volume(
                volume, "sz", BOUND, tile_shape=(8, 8, 8), cache=False
            )
        np.testing.assert_array_equal(
            decompress_volume(plain), decompress_volume(traced)
        )
        assert tracer.spans(), "tracer should have recorded the traced run"


def _compressed(volume, *, halo=True):
    return compress_volume(
        volume, "sz", BOUND, tile_shape=(8, 8, 8), halo=halo, cache=False
    )


def _assert_decode_tree(tracer: Tracer, *, roots: int, n_tiles: int) -> None:
    spans = tracer.spans()
    by_id = {s.span_id: s for s in spans}
    top = [s for s in spans if s.parent_id is None]
    assert [s.name for s in top] == ["volume.decompress"] * roots

    waves = [s for s in spans if s.name == "volume.wave"]
    assert waves and {w.parent_id for w in waves} <= {s.span_id for s in top}

    tiles = [s for s in spans if s.name == "volume.tile.decode"]
    assert len(tiles) == n_tiles
    assert {t.parent_id for t in tiles} <= {w.span_id for w in waves}
    assert all(t.lane.startswith("wave") for t in tiles)

    tile_ids = {t.span_id for t in tiles}
    codec = [s for s in spans if s.name.startswith("codec.")]
    assert codec, "expected per-stage codec spans inside the tiles"
    for stage in codec:
        owner = by_id[stage.parent_id]
        while owner.name.startswith("codec."):
            owner = by_id[owner.parent_id]
        assert owner.span_id in tile_ids


class TestDecodeTrees:
    """Every decode path — serial, pool and stream — roots its tile spans
    under ``volume.decompress`` and its waves."""

    @pytest.mark.parametrize(
        "parallel", [None, ParallelConfig(workers=2)], ids=["serial", "pool"]
    )
    def test_decompress_tree(self, volume, parallel):
        compressed = _compressed(volume)
        tracer = Tracer()
        with install_tracer(tracer):
            decompress_volume(compressed, parallel=parallel)
        _assert_decode_tree(tracer, roots=1, n_tiles=8)

    def test_stream_tree(self, volume):
        compressed = _compressed(volume)
        tracer = Tracer()
        with install_tracer(tracer):
            slabs = list(decompress_volume_stream(compressed))
        assert len(slabs) == 2
        _assert_decode_tree(tracer, roots=2, n_tiles=8)


class TestStreamWaveIds:
    def test_wave_ids_are_unique_and_increasing(self):
        volume = generate_miranda_like_volume((24, 24, 24), seed=5)
        tracer = Tracer()
        with install_tracer(tracer):
            compress_volume_stream(
                volume, "sz", BOUND, tile_shape=(8, 8, 8), halo=True, cache=False
            )
        spans = tracer.spans()
        waves = sorted(
            (s for s in spans if s.name == "volume.wave"), key=lambda s: s.start
        )
        ids = [s.args["wave"] for s in waves]
        # Three slabs of five in-slab anti-diagonals each, numbered once.
        assert ids == list(range(15))
        lanes = [s.lane for s in spans if s.name == "volume.tile"]
        assert len(lanes) == len(set(lanes)) == 27
