"""Tests for repro.core.experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import (
    CorrelationStatistics,
    ExperimentConfig,
    measure_field,
    measure_statistics,
)


class TestExperimentConfig:
    def test_defaults_match_paper(self):
        config = ExperimentConfig()
        assert config.compressors == ("sz", "zfp", "mgard")
        assert config.error_bounds == (1e-5, 1e-4, 1e-3, 1e-2)
        assert config.window == 32
        assert config.svd_energy == 0.99

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(compressors=())
        with pytest.raises(ValueError):
            ExperimentConfig(error_bounds=())
        with pytest.raises(ValueError):
            ExperimentConfig(error_bounds=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(window=2)
        with pytest.raises(ValueError):
            ExperimentConfig(svd_energy=1.5)


class TestMeasureStatistics:
    def test_all_statistics_computed_by_default(self, smooth_field):
        stats = measure_statistics(smooth_field)
        assert stats.global_variogram_range > 0
        assert np.isfinite(stats.std_local_variogram_range)
        assert np.isfinite(stats.std_local_svd_truncation)
        assert stats.field_variance == pytest.approx(float(np.var(smooth_field)))

    def test_toggles_disable_statistics(self, smooth_field):
        config = ExperimentConfig(
            compute_global_range=False,
            compute_local_variogram=False,
            compute_local_svd=False,
        )
        stats = measure_statistics(smooth_field, config)
        assert np.isnan(stats.global_variogram_range)
        assert np.isnan(stats.std_local_variogram_range)
        assert np.isnan(stats.std_local_svd_truncation)

    def test_small_field_skips_local_statistics(self):
        field = np.random.default_rng(0).normal(size=(16, 16))
        stats = measure_statistics(field)
        assert np.isnan(stats.std_local_variogram_range)
        assert np.isnan(stats.std_local_svd_truncation)
        assert np.isfinite(stats.global_variogram_range)

    def test_volume_statistics(self):
        from repro.datasets.miranda import generate_miranda_like_volume

        volume = generate_miranda_like_volume((16, 16, 16), seed=2)
        stats = measure_statistics(volume, ExperimentConfig(window=8))
        assert stats.global_variogram_range > 0
        assert np.isfinite(stats.std_local_variogram_range)
        assert np.isnan(stats.std_local_svd_truncation)
        assert stats.field_variance == pytest.approx(float(volume.var()))

    @pytest.mark.parametrize("shape", [(64, 64), (8, 8, 8)])
    def test_unfittable_fields_record_nan(self, shape):
        constant = measure_statistics(np.full(shape, 1.5), ExperimentConfig(window=8))
        assert np.isnan(constant.global_variogram_range)
        assert np.isnan(constant.std_local_variogram_range)
        non_finite = np.random.default_rng(1).normal(size=shape)
        non_finite.flat[0] = np.nan
        config = ExperimentConfig(compute_local_svd=False)
        assert np.isnan(measure_statistics(non_finite, config).global_variogram_range)

    def test_as_dict_keys(self):
        stats = CorrelationStatistics()
        keys = set(stats.as_dict())
        assert {
            "global_variogram_range",
            "std_local_variogram_range",
            "std_local_svd_truncation",
            "field_variance",
            "field_mean",
        } == keys


class TestMeasureField:
    def test_one_record_per_compressor_bound_pair(self, smooth_field):
        config = ExperimentConfig(
            compressors=("sz", "zfp"),
            error_bounds=(1e-3, 1e-2),
            compute_local_variogram=False,
            compute_local_svd=False,
        )
        records = measure_field(
            smooth_field, dataset="test", field_label="f0", config=config
        )
        assert len(records) == 4
        pairs = {(r.compressor, r.error_bound) for r in records}
        assert pairs == {("sz", 1e-3), ("sz", 1e-2), ("zfp", 1e-3), ("zfp", 1e-2)}

    def test_statistics_shared_across_records(self, smooth_field):
        config = ExperimentConfig(
            compressors=("sz",), error_bounds=(1e-3, 1e-2), compute_local_svd=False
        )
        records = measure_field(smooth_field, dataset="d", field_label="l", config=config)
        assert records[0].statistics is records[1].statistics

    def test_precomputed_statistics_reused(self, smooth_field):
        stats = CorrelationStatistics(global_variogram_range=42.0)
        config = ExperimentConfig(compressors=("sz",), error_bounds=(1e-2,))
        records = measure_field(
            smooth_field, dataset="d", field_label="l", config=config, statistics=stats
        )
        assert records[0].statistics.global_variogram_range == 42.0

    def test_record_flattening(self, smooth_field):
        config = ExperimentConfig(
            compressors=("sz",),
            error_bounds=(1e-2,),
            compute_local_variogram=False,
            compute_local_svd=False,
        )
        record = measure_field(
            smooth_field, dataset="d", field_label="l", config=config
        )[0]
        row = record.as_dict()
        assert row["dataset"] == "d"
        assert row["compressor"] == "sz"
        assert row["compression_ratio"] == pytest.approx(record.compression_ratio)
        assert "metric_psnr" in row
        assert "global_variogram_range" in row
