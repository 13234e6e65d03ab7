"""Two-wave parallel store decode: identical to the serial reader.

The pooled read path decodes anchors in wave 0 and halo chunks (each
task carrying its anchors' faces and contexts) in wave 1; the results,
the halo dependency closure and the payload-dedup accounting must match
the serial read exactly."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.serve.cache import HotChunkCache
from repro.store import ArrayStore
from repro.store.format import (
    StoreCorruptionError,
    halo_flags,
    pack_index,
    unpack_index,
)
from repro.store.snapshot import INDEX_NAME, META_NAME, RAW_CODEC, StoreSnapshot
from repro.utils.parallel import ParallelConfig

BOUND = 1e-3
PARALLEL = ParallelConfig(workers=2)


@pytest.fixture(scope="module", params=[False, True], ids=["grid", "halo"])
def store(request, tmp_path_factory):
    volume = generate_miranda_like_volume((40, 40, 24), seed=5)
    store = ArrayStore.create(
        tmp_path_factory.mktemp("pstore") / "s",
        chunk_shape=16,
        codec="sz",
        error_bound=BOUND,
        halo=request.param,
    )
    store.write(volume)
    return store


class TestParity:
    def test_full_read(self, store):
        serial = store.read()
        parallel = store.read(parallel=PARALLEL)
        np.testing.assert_array_equal(parallel, serial)

    def test_region_read_with_dropped_axis(self, store):
        region = (slice(5, 30), slice(10, 40), 7)
        serial = store.read(region)
        serial_report = store.last_read
        parallel = store.read(region, parallel=PARALLEL)
        parallel_report = store.last_read
        np.testing.assert_array_equal(parallel, serial)
        assert parallel_report.chunks_total == serial_report.chunks_total
        assert (
            parallel_report.chunks_intersecting
            == serial_report.chunks_intersecting
        )
        assert parallel_report.chunks_decoded == serial_report.chunks_decoded

    def test_serial_config_is_the_serial_path(self, store):
        np.testing.assert_array_equal(
            store.read(parallel=ParallelConfig(workers=1)), store.read()
        )


class TestPayloadDedup:
    def test_identical_chunks_decode_once(self, tmp_path):
        # A constant array dedups to one stored payload per chunk shape;
        # the parallel reader must decode one slot, not one per chunk.
        store = ArrayStore.create(
            tmp_path / "flat", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        store.write(np.ones((32, 32, 32)))
        serial = store.read()
        serial_decodes = store.last_read.chunks_decoded
        parallel = store.read(parallel=PARALLEL)
        parallel_report = store.last_read
        np.testing.assert_array_equal(parallel, serial)
        assert parallel_report.chunks_decoded == serial_decodes
        assert parallel_report.chunks_decoded < parallel_report.chunks_intersecting


class TestCacheInteraction:
    def test_hot_cache_keeps_serial_decoder(self, tmp_path):
        # The serve hot path owns its cache accounting; a parallel config
        # combined with a chunk cache falls back to the serial decoder.
        field = generate_gaussian_field((64, 64), correlation_range=9.0, seed=3)
        store = ArrayStore.create(
            tmp_path / "hot", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        store.write(field)
        cache = HotChunkCache(max_nbytes=1 << 20)
        first = store.read(chunk_cache=cache, parallel=PARALLEL)
        second = store.read(chunk_cache=cache, parallel=PARALLEL)
        np.testing.assert_array_equal(first, second)
        assert store.last_read.cache_hits > 0


class TestAppendedStore:
    def test_partial_trailing_chunks(self, tmp_path):
        store = ArrayStore.create(
            tmp_path / "grown", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        store.write(generate_miranda_like_volume((32, 24, 24), seed=9))
        store.append(generate_miranda_like_volume((9, 24, 24), seed=10))
        np.testing.assert_array_equal(
            store.read(parallel=PARALLEL), store.read()
        )


class TestCorruptRawChunk:
    def test_wrong_length_raw_record_is_typed_on_both_paths(self, tmp_path):
        # A record relabelled as an exact raw chunk keeps its payload bytes,
        # so the CRC still matches; only the length check can catch it.
        store = ArrayStore.create(
            tmp_path / "raw", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        store.write(generate_miranda_like_volume((32, 32, 32), seed=4))
        index_path = tmp_path / "raw" / INDEX_NAME
        records = unpack_index(index_path.read_bytes())
        records[0] = dataclasses.replace(records[0], codec=RAW_CODEC)
        blob = pack_index(records)
        index_path.write_bytes(blob)
        meta_path = tmp_path / "raw" / META_NAME
        meta = json.loads(meta_path.read_text())
        meta["index_sha1"] = hashlib.sha1(blob).hexdigest()
        meta_path.write_text(json.dumps(meta))

        reopened = ArrayStore.open(tmp_path / "raw")
        with pytest.raises(StoreCorruptionError, match="raw chunk"):
            reopened.read()
        with pytest.raises(StoreCorruptionError, match="raw chunk"):
            reopened.read(parallel=PARALLEL)


class TestCorruptHaloFlags:
    """The read plan's halo-closure checks: an edited index whose halo
    flags point past the array edge or at a halo chunk fails typed, on
    the serial and the pooled read alike."""

    @pytest.fixture(scope="class")
    def halo_store(self, tmp_path_factory):
        field = generate_gaussian_field((64, 64), correlation_range=9.0, seed=2)
        store = ArrayStore.create(
            tmp_path_factory.mktemp("flags") / "s",
            chunk_shape=16,
            codec="sz",
            error_bound=BOUND,
            halo=True,
        )
        store.write(field)
        return store

    @pytest.mark.parametrize(
        "grid,message",
        [
            ((0, 0), r"neighbour beyond the array edge \(axis 0\)"),
            ((1, 1), r"non-anchor chunk at grid \(0, 1\)"),
        ],
        ids=["past-edge", "halo-anchor"],
    )
    def test_edited_anchor_flags_fail_typed(self, halo_store, grid, message):
        snapshot = StoreSnapshot.open(halo_store.path)
        linear = snapshot.linear_index(grid)
        assert snapshot.index[linear].flags == 0
        index = list(snapshot.index)
        index[linear] = dataclasses.replace(index[linear], flags=halo_flags(0b01, 0))
        edited = StoreSnapshot(snapshot.meta, index, path=snapshot.path)
        with pytest.raises(StoreCorruptionError, match=message):
            edited.read()
        with pytest.raises(StoreCorruptionError, match=message):
            edited.read(parallel=PARALLEL)
