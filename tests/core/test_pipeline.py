"""Tests for repro.core.pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.pipeline import (
    ExperimentCache,
    records_to_table,
    run_experiment,
    run_experiment_on_fields,
)
from repro.datasets.miranda import generate_miranda_like_volume
from repro.datasets.registry import DatasetRegistry
from repro.obs.trace import Tracer, install_tracer
from repro.store import ArrayStore
from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import compress_volume

FAST_CONFIG = ExperimentConfig(
    compressors=("sz", "zfp"),
    error_bounds=(1e-3, 1e-2),
    compute_local_variogram=False,
    compute_local_svd=False,
)


def _toy_registry() -> DatasetRegistry:
    registry = DatasetRegistry()

    def factory(seed=None):
        rng = np.random.default_rng(seed)
        return [
            ("smooth", np.cumsum(np.cumsum(rng.normal(size=(48, 48)), axis=0), axis=1) / 100),
            ("rough", rng.normal(size=(48, 48))),
        ]

    registry.register("toy", factory)
    return registry


class TestRunExperiment:
    def test_record_count(self):
        result = run_experiment("toy", config=FAST_CONFIG, registry=_toy_registry(), seed=0)
        # 2 fields x 2 compressors x 2 bounds
        assert len(result.records) == 8
        assert result.dataset == "toy"

    def test_filtering(self):
        result = run_experiment("toy", config=FAST_CONFIG, registry=_toy_registry(), seed=0)
        sz_records = result.filter(compressor="sz")
        assert all(r.compressor == "sz" for r in sz_records)
        assert len(sz_records) == 4
        bound_records = result.filter(error_bound=1e-2)
        assert len(bound_records) == 4
        both = result.filter(compressor="zfp", error_bound=1e-3)
        assert len(both) == 2

    def test_compressors_and_bounds_properties(self):
        result = run_experiment("toy", config=FAST_CONFIG, registry=_toy_registry(), seed=0)
        assert result.compressors == ["sz", "zfp"]
        assert result.error_bounds == [1e-3, 1e-2]

    def test_deterministic_given_seed(self):
        a = run_experiment("toy", config=FAST_CONFIG, registry=_toy_registry(), seed=3)
        b = run_experiment("toy", config=FAST_CONFIG, registry=_toy_registry(), seed=3)
        assert [r.compression_ratio for r in a.records] == [
            r.compression_ratio for r in b.records
        ]

    def test_parallel_matches_serial(self):
        serial = run_experiment("toy", config=FAST_CONFIG, registry=_toy_registry(), seed=1)
        pooled = run_experiment(
            "toy",
            config=FAST_CONFIG,
            registry=_toy_registry(),
            seed=1,
            parallel=ParallelConfig(workers=2),
        )
        assert [r.compression_ratio for r in serial.records] == [
            r.compression_ratio for r in pooled.records
        ]

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            run_experiment("nope", registry=_toy_registry())


class TestRunExperimentOnFields:
    def test_explicit_fields(self, smooth_field, rough_field):
        result = run_experiment_on_fields(
            [("a", smooth_field), ("b", rough_field)], dataset="explicit", config=FAST_CONFIG
        )
        assert len(result.records) == 8
        labels = {r.field_label for r in result.records}
        assert labels == {"a", "b"}

    def test_empty_field_list(self):
        result = run_experiment_on_fields([], dataset="empty", config=FAST_CONFIG)
        assert result.records == ()

    def test_repeated_field_in_one_call_is_measured_once(
        self, smooth_field, rough_field, monkeypatch
    ):
        import repro.core.pipeline as pipeline

        measured = []
        real = pipeline._measure_one

        def spy(task):
            measured.append(task[1])
            return real(task)

        monkeypatch.setattr(pipeline, "_measure_one", spy)
        fields = [("a", smooth_field), ("b", rough_field), ("a", smooth_field.copy())]
        cache = ExperimentCache()
        result = run_experiment_on_fields(
            fields, dataset="dup", config=FAST_CONFIG, cache=cache
        )
        assert measured == ["a", "b"]
        counters = cache.counters()
        assert (counters["misses"], counters["in_call_duplicates"]) == (2, 1)
        assert [r.field_label for r in result.records] == ["a"] * 4 + ["b"] * 4 + ["a"] * 4
        assert result.records[8:] == result.records[:4]

        measured.clear()
        uncached = run_experiment_on_fields(
            fields, dataset="dup", config=FAST_CONFIG, cache=False
        )
        assert measured == ["a", "b", "a"]
        crs = [r.compression_ratio for r in result.records]
        assert [r.compression_ratio for r in uncached.records] == crs


class TestExperimentCache:
    def test_counters_track_hits_misses_evictions(self):
        cache = ExperimentCache(max_entries=2)
        a = ExperimentCache.key("d", "a", np.zeros((4, 4)), "c")
        b = ExperimentCache.key("d", "b", np.ones((4, 4)), "c")
        c = ExperimentCache.key("d", "c", np.full((4, 4), 2.0), "c")
        assert cache.get(a) is None  # miss
        cache.put(a, (1,))
        cache.put(b, (2,))
        assert cache.get(a) == (1,)  # hit
        cache.put(c, (3,))  # evicts b (a was just used)
        assert cache.get(b) is None
        counters = cache.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 2
        assert counters["evictions"] == 1
        assert counters["entries"] == 2
        cache.clear()
        assert cache.counters() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "in_call_duplicates": 0,
            "entries": 0,
        }

    def test_no_key_collision_between_2d_and_3d_same_bytes(self):
        """Same raw bytes, different shape handling: must key apart.

        A (64, 64) plane of zeros and a (16, 16, 16) cube of zeros have
        byte-identical buffers; a key that hashed only content would
        silently serve a 2D measurement for a 3D request (and vice versa).
        """

        plane = np.zeros((64, 64))
        cube = np.zeros((16, 16, 16))
        assert plane.tobytes() == cube.tobytes()
        key_2d = ExperimentCache.key("d", "l", plane, "cfg")
        key_3d = ExperimentCache.key("d", "l", cube, "cfg")
        assert key_2d != key_3d
        cache = ExperimentCache()
        cache.put(key_2d, ("2d-records",))
        assert cache.get(key_3d) is None

    def test_key_components_are_delimited(self):
        """Adjacent string components must not be able to merge."""

        field = np.zeros((4, 4))
        assert ExperimentCache.key("ab", "c", field, "") != ExperimentCache.key(
            "a", "bc", field, ""
        )
        assert ExperimentCache.key("d", "lcfg", field, "") != ExperimentCache.key(
            "d", "l", field, "cfg"
        )


class TestMemoIsOptIn:
    def test_repeated_calls_do_the_work_again(self, tmp_path, smooth_field):
        volume = generate_miranda_like_volume((16, 16, 16), seed=3)
        store = ArrayStore.create(tmp_path / "s", chunk_shape=8, codec="sz")
        tracer = Tracer()
        with install_tracer(tracer):
            for _ in range(2):
                compress_volume(volume, "sz", 1e-3, tile_shape=(8, 8, 8))
                store.write(volume)
        names = [record.name for record in tracer.spans()]
        # Without a caller's cache nothing is memoized across calls.
        assert names.count("volume.tile") == 2 * 8
        assert names.count("store.encode_chunk") == 2 * 8

        # The store has no memo to opt out of; the volume and experiment
        # entry points still take cache=False and run.
        with pytest.raises(TypeError):
            store.write(volume, cache=False)
        with pytest.raises(TypeError):
            store.append(volume, cache=False)
        compressed = compress_volume(
            volume, "sz", 1e-3, tile_shape=(8, 8, 8), cache=False
        )
        assert compressed.n_tiles == 8
        result = run_experiment_on_fields(
            [("a", smooth_field)], dataset="t", config=FAST_CONFIG, cache=False
        )
        assert len(result.records) == 4
        with pytest.raises(TypeError):
            run_experiment_on_fields(
                [("a", smooth_field)], dataset="t", config=FAST_CONFIG, cache=True
            )


class TestRecordsToTable:
    def test_column_alignment(self, smooth_field):
        result = run_experiment_on_fields(
            [("a", smooth_field)], dataset="t", config=FAST_CONFIG
        )
        table = records_to_table(result.records)
        n = len(result.records)
        assert all(len(column) == n for column in table.values())
        assert set(table["compressor"]) == {"sz", "zfp"}

    def test_empty_records(self):
        assert records_to_table([]) == {}
