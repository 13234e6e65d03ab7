"""Tests for repro.core.pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.pipeline import (
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

    def test_repeated_field_is_measured_every_time(
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
        result = run_experiment_on_fields(fields, dataset="dup", config=FAST_CONFIG)
        assert measured == ["a", "b", "a"]
        assert [r.field_label for r in result.records] == ["a"] * 4 + ["b"] * 4 + ["a"] * 4
        crs = [r.compression_ratio for r in result.records]
        assert crs[8:] == crs[:4]


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

        # The store has no memo to opt out of.
        with pytest.raises(TypeError):
            store.write(volume, cache=False)
        with pytest.raises(TypeError):
            store.append(volume, cache=False)


def _sweep(field, cache) -> int:
    result = run_experiment_on_fields(
        [("a", field)], dataset="t", config=FAST_CONFIG, cache=cache
    )
    return len(result.records)


def _volume(field, cache) -> int:
    volume = generate_miranda_like_volume((16, 16, 16), seed=3)
    return compress_volume(volume, "sz", 1e-3, tile_shape=(8, 8, 8), cache=cache).n_tiles


class TestCacheKeyword:
    """``run_experiment_on_fields`` and ``compress_volume`` keep a ``cache``
    keyword that memoizes nothing: ``None`` and ``False`` run, anything
    else is a ``TypeError``."""

    @pytest.mark.parametrize(
        "entry,expected", [(_sweep, 4), (_volume, 8)], ids=["sweep", "volume"]
    )
    @pytest.mark.parametrize("cache", [None, False], ids=["none", "false"])
    def test_no_memo_values_run(self, smooth_field, entry, expected, cache):
        assert entry(smooth_field, cache) == expected

    @pytest.mark.parametrize("entry", [_sweep, _volume], ids=["sweep", "volume"])
    @pytest.mark.parametrize("cache", [True, object()], ids=["true", "object"])
    def test_other_values_raise(self, smooth_field, entry, cache):
        with pytest.raises(TypeError, match="cache must be None or False"):
            entry(smooth_field, cache)


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
