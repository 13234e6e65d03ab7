"""Tests for repro.volumes.pipeline (tiled volume compression)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.pipeline import ExperimentCache, run_experiment
from repro.datasets.miranda import generate_miranda_like_volume
from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import (
    compress_volume,
    decompress_volume,
    measure_volume_field,
    slice_baseline,
    volume_metrics,
)


@pytest.fixture(scope="module")
def volume():
    return generate_miranda_like_volume((24, 32, 28), seed=9)


class TestSharding:
    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            compress_volume(np.zeros((4, 4)), "sz", 1e-3)

    def test_rejects_bad_tile_shape(self, volume):
        with pytest.raises(ValueError):
            compress_volume(volume, "sz", 1e-3, tile_shape=(0, 4, 4))
        with pytest.raises(ValueError):
            compress_volume(volume, "sz", 1e-3, tile_shape=(4, 4))


class TestCompressVolume:
    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_roundtrip_within_bound(self, volume, name):
        bound = 1e-3
        compressed = compress_volume(
            volume, name, bound, tile_shape=(16, 16, 16), cache=False
        )
        reconstruction = decompress_volume(compressed)
        assert reconstruction.shape == volume.shape
        assert np.abs(reconstruction - volume).max() <= bound * (1 + 1e-9)
        assert compressed.n_tiles == 8
        assert compressed.compression_ratio > 1.0

    def test_metrics_report_bound_and_sizes(self, volume):
        compressed = compress_volume(volume, "sz", 1e-3, cache=False)
        metrics = volume_metrics(volume, compressed)
        assert metrics.bound_satisfied
        assert metrics.compression_ratio == pytest.approx(
            compressed.compression_ratio
        )
        assert metrics.max_abs_error <= 1e-3 * (1 + 1e-9)
        assert compressed.original_nbytes == volume.nbytes

    def test_cache_hits_on_repeat(self, volume):
        cache = ExperimentCache(max_entries=64)
        compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=cache)
        assert cache.hits == 0 and cache.misses == 8
        compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=cache)
        assert cache.hits == 8
        # A different bound must not hit.
        compress_volume(volume, "sz", 1e-2, tile_shape=(16, 16, 16), cache=cache)
        assert cache.hits == 8 and cache.misses == 16

    def test_cache_counters_reported(self, volume):
        cache = ExperimentCache(max_entries=64)
        compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=cache)
        assert cache.counters() == {
            "hits": 0,
            "misses": 8,
            "evictions": 0,
            "in_call_duplicates": 0,
            "entries": 8,
        }
        compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=cache)
        assert cache.hits == 8
        assert cache.misses == 8

    def test_constant_tiles_deduplicate(self):
        cache = ExperimentCache(max_entries=64)
        constant = np.zeros((16, 32, 32))
        compressed = compress_volume(
            constant, "sz", 1e-3, tile_shape=(16, 16, 16), cache=cache
        )
        # 4 identical tiles: one compression, three in-call duplicates.
        assert cache.misses == 1 and len(cache) == 1
        assert cache.in_call_duplicates == 3
        blobs = {tile.compressed.data for tile in compressed.tiles}
        assert len(blobs) == 1

    def test_duplicates_survive_cache_eviction(self):
        # The duplicate of tile 0 must resolve even when the tiny cache has
        # already evicted tile 0's entry by the time the call finishes.
        cache = ExperimentCache(max_entries=1)
        volume = np.random.default_rng(11).normal(size=(48, 8, 8))
        volume[32:48] = volume[0:16]  # last tile duplicates the first
        compressed = compress_volume(
            volume, "sz", 1e-3, tile_shape=(16, 8, 8), cache=cache
        )
        reconstruction = decompress_volume(compressed)
        assert np.abs(reconstruction - volume).max() <= 1e-3 * (1 + 1e-9)

    def test_parallel_workers_match_serial(self, volume):
        serial = compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=False)
        parallel = compress_volume(
            volume,
            "sz",
            1e-3,
            tile_shape=(16, 16, 16),
            cache=False,
            parallel=ParallelConfig(workers=2),
        )
        assert [t.compressed.data for t in serial.tiles] == [
            t.compressed.data for t in parallel.tiles
        ]

    def test_beats_slice_baseline_on_miranda(self):
        volume = generate_miranda_like_volume((64, 64, 64), seed=0)
        bound = 1e-3
        for name in ("sz", "zfp", "mgard"):
            tiled = compress_volume(volume, name, bound, cache=False)
            baseline = slice_baseline(volume, name, bound)
            assert tiled.compression_ratio > baseline, name


class TestMeasureVolumeField:
    def test_records_have_3d_statistics(self, volume):
        config = ExperimentConfig(
            compressors=("sz", "zfp"), error_bounds=(1e-3,), window=8
        )
        records = measure_volume_field(
            volume, dataset="test", field_label="vol", config=config
        )
        assert {r.compressor for r in records} == {"sz", "zfp"}
        for record in records:
            assert record.metrics.bound_satisfied
            assert np.isfinite(record.statistics.global_variogram_range)
            # The windowed local 3D variogram statistic (Fig. 7 analogue).
            assert np.isfinite(record.statistics.std_local_variogram_range)
            # The local SVD statistic has no 3D analogue.
            assert np.isnan(record.statistics.std_local_svd_truncation)

    def test_local_statistics_toggle(self, volume):
        config = ExperimentConfig(
            compressors=("sz",),
            error_bounds=(1e-3,),
            window=8,
            compute_local_variogram=False,
        )
        records = measure_volume_field(
            volume, dataset="test", field_label="vol", config=config
        )
        assert np.isnan(records[0].statistics.std_local_variogram_range)

    def test_window_larger_than_volume_stays_nan(self, volume):
        config = ExperimentConfig(
            compressors=("sz",), error_bounds=(1e-3,), window=64
        )
        records = measure_volume_field(
            volume, dataset="test", field_label="vol", config=config
        )
        assert np.isnan(records[0].statistics.std_local_variogram_range)

    def test_run_experiment_routes_volume_datasets(self):
        config = ExperimentConfig(compressors=("sz",), error_bounds=(1e-3,))
        result = run_experiment(
            "miranda-volume", config=config, seed=2, cache=False
        )
        assert len(result.records) == 1
        record = result.records[0]
        assert record.field_label == "miranda-velocityx-volume"
        assert record.compression_ratio > 1.0
        assert record.metrics.bound_satisfied


class TestHaloVolume:
    """Halo-aware tiled compression: wavefront scheduling, cross-seam
    prediction/entropy context, and the seam-gap recovery the ISSUE
    targets."""

    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_round_trip_within_bound(self, volume, name):
        compressed = compress_volume(
            volume, name, 1e-3, tile_shape=(16, 16, 16), cache=False, halo=True
        )
        assert compressed.halo
        out = decompress_volume(compressed)
        assert np.abs(out - volume).max() <= 1e-3 * (1.0 + 1e-9)

    def test_halo_off_unchanged(self, volume):
        plain = compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=False)
        again = compress_volume(
            volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=False, halo=False
        )
        assert not plain.halo
        assert [t.compressed.data for t in plain.tiles] == [
            t.compressed.data for t in again.tiles
        ]

    def test_parallel_workers_match_serial(self, volume):
        serial = compress_volume(
            volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=False, halo=True
        )
        parallel = compress_volume(
            volume,
            "sz",
            1e-3,
            tile_shape=(16, 16, 16),
            cache=False,
            halo=True,
            parallel=ParallelConfig(workers=2),
        )
        assert [t.compressed.data for t in serial.tiles] == [
            t.compressed.data for t in parallel.tiles
        ]

    def test_memo_key_distinguishes_halo(self, volume):
        cache = ExperimentCache(max_entries=256)
        plain = compress_volume(
            volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=cache
        )
        compress_volume(
            volume, "sz", 1e-3, tile_shape=(16, 16, 16), cache=cache, halo=True
        )
        # A halo run right after a halo-off run must not reuse its tiles.
        assert cache.hits == 0
        assert plain.compressed_nbytes != 0

    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_seam_recovery_halo_not_worse(self, name):
        """Halo CR >= no-halo CR on a correlated field, all compressors."""

        volume = generate_miranda_like_volume((32, 32, 32), seed=2021)
        off = compress_volume(
            volume, name, 1e-3, tile_shape=(16, 16, 16), cache=False
        )
        on = compress_volume(
            volume, name, 1e-3, tile_shape=(16, 16, 16), cache=False, halo=True
        )
        assert on.compression_ratio >= off.compression_ratio

    def test_zfp_seam_gap_recovery_acceptance(self):
        """The ISSUE's acceptance bar: on the 64^3 Miranda volume at
        eb 1e-3 with 32^3 tiles, halo-on ZFP recovers at least half of
        the tiling gap to untiled ZFP."""

        from repro.compressors.registry import make_compressor

        volume = generate_miranda_like_volume((64, 64, 64), seed=2021)
        untiled = make_compressor("zfp", 1e-3).compress(volume).compression_ratio
        off = compress_volume(
            volume, "zfp", 1e-3, tile_shape=(32, 32, 32), cache=False
        )
        on = compress_volume(
            volume, "zfp", 1e-3, tile_shape=(32, 32, 32), cache=False, halo=True
        )
        assert untiled > off.compression_ratio  # the seam gap exists
        assert on.compression_ratio >= (untiled + off.compression_ratio) / 2.0
        out = decompress_volume(on)
        assert np.abs(out - volume).max() <= 1e-3 * (1.0 + 1e-9)
