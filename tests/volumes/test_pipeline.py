"""Tests for repro.volumes.pipeline (tiled volume compression)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig, measure_field
from repro.core.pipeline import run_experiment
from repro.datasets.miranda import generate_miranda_like_volume
from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import (
    compress_volume,
    decompress_volume,
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
            volume, name, bound, tile_shape=(16, 16, 16)
        )
        reconstruction = decompress_volume(compressed)
        assert reconstruction.shape == volume.shape
        assert np.abs(reconstruction - volume).max() <= bound * (1 + 1e-9)
        assert compressed.n_tiles == 8
        assert compressed.compression_ratio > 1.0

    def test_metrics_report_bound_and_sizes(self, volume):
        compressed = compress_volume(volume, "sz", 1e-3)
        metrics = volume_metrics(volume, compressed)
        assert metrics.bound_satisfied
        assert metrics.compression_ratio == pytest.approx(
            compressed.compression_ratio
        )
        assert metrics.max_abs_error <= 1e-3 * (1 + 1e-9)
        assert compressed.original_nbytes == volume.nbytes

    def test_identical_tiles_compress_identically(self):
        constant = np.zeros((16, 32, 32))
        compressed = compress_volume(constant, "sz", 1e-3, tile_shape=(16, 16, 16))
        blobs = [tile.compressed.data for tile in compressed.tiles]
        assert len(blobs) == 4 and len(set(blobs)) == 1

    def test_parallel_workers_match_serial(self, volume):
        serial = compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16))
        parallel = compress_volume(
            volume,
            "sz",
            1e-3,
            tile_shape=(16, 16, 16),
            parallel=ParallelConfig(workers=2),
        )
        assert [t.compressed.data for t in serial.tiles] == [
            t.compressed.data for t in parallel.tiles
        ]

    def test_beats_slice_baseline_on_miranda(self):
        volume = generate_miranda_like_volume((64, 64, 64), seed=0)
        bound = 1e-3
        for name in ("sz", "zfp", "mgard"):
            tiled = compress_volume(volume, name, bound)
            baseline = slice_baseline(volume, name, bound)
            assert tiled.compression_ratio > baseline, name


class TestMeasureFieldOnVolumes:
    """``measure_field`` measures a volume whole, like a 2D field."""

    def test_records_have_3d_statistics(self, volume):
        config = ExperimentConfig(
            compressors=("sz", "zfp"), error_bounds=(1e-3, 1e-2), window=8
        )
        records = measure_field(volume, dataset="test", field_label="vol", config=config)
        assert len(records) == 4
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
        records = measure_field(volume, dataset="test", field_label="vol", config=config)
        assert np.isnan(records[0].statistics.std_local_variogram_range)

    def test_window_larger_than_volume_stays_nan(self, volume):
        config = ExperimentConfig(
            compressors=("sz",), error_bounds=(1e-3,), window=64
        )
        records = measure_field(volume, dataset="test", field_label="vol", config=config)
        assert np.isnan(records[0].statistics.std_local_variogram_range)

    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_one_tile_volume_matches_compress_volume(self, volume, name):
        """A volume no larger than one tile gives the tiled path's numbers."""

        config = ExperimentConfig(
            compressors=(name,),
            error_bounds=(1e-3, 1e-2),
            compute_global_range=False,
            compute_local_variogram=False,
        )
        records = measure_field(volume, dataset="test", field_label="vol", config=config)
        for record, bound in zip(records, config.error_bounds):
            compressed = compress_volume(volume, name, bound)
            assert compressed.n_tiles == 1
            assert record.compression_ratio == compressed.compression_ratio
            assert record.metrics == volume_metrics(volume, compressed)

    def test_run_experiment_measures_volume_datasets(self):
        config = ExperimentConfig(compressors=("sz",), error_bounds=(1e-3,))
        result = run_experiment("miranda-volume", config=config, seed=2)
        assert len(result.records) == 1
        record = result.records[0]
        assert record.field_label == "miranda-velocityx-volume"
        assert record.compression_ratio > 1.0
        assert record.metrics.bound_satisfied

    def test_rejects_1d_and_4d(self):
        for shape in ((8,), (4, 4, 4, 4)):
            with pytest.raises(ValueError, match="2D/3D"):
                measure_field(np.zeros(shape), dataset="t", field_label="x")


class TestHaloVolume:
    """Halo-aware tiled compression: wavefront scheduling, cross-seam
    prediction/entropy context, and the seam-gap recovery the ISSUE
    targets."""

    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_round_trip_within_bound(self, volume, name):
        compressed = compress_volume(
            volume, name, 1e-3, tile_shape=(16, 16, 16), halo=True
        )
        assert compressed.halo
        out = decompress_volume(compressed)
        assert np.abs(out - volume).max() <= 1e-3 * (1.0 + 1e-9)

    def test_halo_off_unchanged(self, volume):
        plain = compress_volume(volume, "sz", 1e-3, tile_shape=(16, 16, 16))
        again = compress_volume(
            volume, "sz", 1e-3, tile_shape=(16, 16, 16), halo=False
        )
        assert not plain.halo
        assert [t.compressed.data for t in plain.tiles] == [
            t.compressed.data for t in again.tiles
        ]

    def test_parallel_workers_match_serial(self, volume):
        serial = compress_volume(
            volume, "sz", 1e-3, tile_shape=(16, 16, 16), halo=True
        )
        parallel = compress_volume(
            volume,
            "sz",
            1e-3,
            tile_shape=(16, 16, 16),
            halo=True,
            parallel=ParallelConfig(workers=2),
        )
        assert [t.compressed.data for t in serial.tiles] == [
            t.compressed.data for t in parallel.tiles
        ]

    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_seam_recovery_halo_not_worse(self, name):
        """Halo CR >= no-halo CR on a correlated field, all compressors."""

        volume = generate_miranda_like_volume((32, 32, 32), seed=2021)
        off = compress_volume(
            volume, name, 1e-3, tile_shape=(16, 16, 16)
        )
        on = compress_volume(
            volume, name, 1e-3, tile_shape=(16, 16, 16), halo=True
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
            volume, "zfp", 1e-3, tile_shape=(32, 32, 32)
        )
        on = compress_volume(
            volume, "zfp", 1e-3, tile_shape=(32, 32, 32), halo=True
        )
        assert untiled > off.compression_ratio  # the seam gap exists
        assert on.compression_ratio >= (untiled + off.compression_ratio) / 2.0
        out = decompress_volume(on)
        assert np.abs(out - volume).max() <= 1e-3 * (1.0 + 1e-9)
