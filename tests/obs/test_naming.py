"""Every number has one source: each layer counts once and reports
through the canonical ``repro_*`` registry names, with no second copy on
``info()``, ``CompressedVolume`` or ``ArrayStore`` attributes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.obs.metrics import REGISTRY
from repro.store import ArrayStore
from repro.store.snapshot import StoreSnapshot
from repro.volumes.pipeline import compress_volume


@pytest.fixture()
def field():
    return generate_gaussian_field((64, 64), correlation_range=8.0, seed=11)


def _delta(before, name):
    return REGISTRY.snapshot().get(name, 0) - before.get(name, 0)


class TestStoreInfo:
    def test_info_is_the_snapshot_summary_plus_store_keys(self, tmp_path, field):
        store = ArrayStore.create(
            tmp_path / "s", chunk_shape=32, codec="sz", error_bound=1e-3
        )
        store.write(field)
        store.read((slice(0, 16), slice(0, 16)))
        info = store.info()

        for alias in ("metrics", "cache_counters", "store_cache_counters"):
            assert alias not in info
        for attribute in ("chunks_decoded_total", "last_write_cache_counters"):
            assert not hasattr(store, attribute)
        summary = StoreSnapshot.open(store.path).info()
        assert {key: info[key] for key in summary} == summary
        assert set(info) - set(summary) == {"path", "chunks"}
        assert info["orphaned_nbytes"] == store.orphaned_nbytes
        assert info["data_file_nbytes"] == store.data_file_nbytes

    def test_reads_count_in_the_process_registry(self, tmp_path, field):
        store = ArrayStore.create(
            tmp_path / "r", chunk_shape=32, codec="sz", error_bound=1e-3
        )
        store.write(field)
        before = REGISTRY.snapshot()
        store.read((slice(0, 40), slice(0, 16)))
        assert _delta(before, "repro_store_reads_total") == 1
        assert _delta(before, "repro_store_chunks_decoded_total") == 2
        assert store.last_read.chunks_decoded == 2


class TestVolumeMetrics:
    def test_volume_keeps_no_counter_copy(self):
        cube = np.zeros((8, 8, 8))
        compressed = compress_volume(cube, "sz", 1e-3, tile_shape=(8, 8, 8))
        assert not hasattr(compressed, "cache_counters")
        assert not hasattr(compressed, "metrics")


class TestProcessRegistry:
    def test_library_layers_publish_no_cache_series(self, tmp_path, field):
        store = ArrayStore.create(
            tmp_path / "reg", chunk_shape=32, codec="sz", error_bound=1e-3
        )
        store.write(field)
        compress_volume(np.zeros((8, 8, 8)), "sz", 1e-3, tile_shape=(8, 8, 8))
        snapshot = REGISTRY.snapshot()
        assert snapshot["repro_store_writes_total"] >= 1
        assert not [name for name in snapshot if name.startswith("repro_cache_")]
