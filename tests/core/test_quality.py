"""Tests for the quality analysis of benchmarks/test_extension_psnr_correlation.py."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.test_extension_psnr_correlation import (
    quality_series_from_result,
    rate_distortion_table,
)
from repro.core.experiment import ExperimentConfig
from repro.core.pipeline import run_experiment_on_fields
from repro.datasets.gaussian import generate_gaussian_field

CONFIG = ExperimentConfig(
    compressors=("sz", "zfp"),
    error_bounds=(1e-4, 1e-3, 1e-2),
    compute_local_variogram=False,
    compute_local_svd=False,
)


@pytest.fixture(scope="module")
def sweep_result():
    fields = [
        (f"a{r:g}", generate_gaussian_field((64, 64), r, seed=int(r)))
        for r in (2.0, 4.0, 8.0, 16.0, 32.0)
    ]
    return run_experiment_on_fields(fields, dataset="quality-test", config=CONFIG)


class TestQualitySeries:
    def test_series_structure(self, sweep_result):
        series = quality_series_from_result(
            sweep_result, "global_variogram_range", metric="psnr"
        )
        assert len(series) == 2 * 3
        for entry in series:
            assert entry.figure == "quality:psnr"
            assert entry.n_points == 5

    def test_psnr_decreases_with_error_bound(self, sweep_result):
        series = quality_series_from_result(
            sweep_result, "global_variogram_range", metric="psnr", compressors=["sz"]
        )
        mean_psnr = {s.error_bound: float(np.mean(s.compression_ratios)) for s in series}
        assert mean_psnr[1e-4] > mean_psnr[1e-3] > mean_psnr[1e-2]

    def test_bit_rate_decreases_with_correlation_range(self, sweep_result):
        series = quality_series_from_result(
            sweep_result, "global_variogram_range", metric="bit_rate", compressors=["sz"]
        )
        for entry in series:
            assert entry.fit is not None
            # More correlated data needs fewer bits per value.
            assert entry.fit.beta < 0

    def test_max_error_stays_below_bound(self, sweep_result):
        series = quality_series_from_result(
            sweep_result, "global_variogram_range", metric="max_abs_error"
        )
        for entry in series:
            assert np.all(entry.compression_ratios <= entry.error_bound * (1 + 1e-9))

    def test_invalid_metric_and_statistic_rejected(self, sweep_result):
        with pytest.raises(ValueError):
            quality_series_from_result(sweep_result, "global_variogram_range", metric="ssim")
        with pytest.raises(ValueError):
            quality_series_from_result(sweep_result, "entropy", metric="psnr")


class TestRateDistortionTable:
    def test_structure_and_ordering(self, sweep_result):
        table = rate_distortion_table(sweep_result)
        assert set(table) == {"sz", "zfp"}
        for points in table.values():
            assert len(points) == 3
            rates = [p.mean_bit_rate for p in points]
            assert rates == sorted(rates)

    def test_rate_distortion_monotone(self, sweep_result):
        # More bits -> better quality along each compressor's curve.
        table = rate_distortion_table(sweep_result)
        for points in table.values():
            psnrs = [p.mean_psnr for p in points]
            assert psnrs == sorted(psnrs)

    def test_cr_consistent_with_bit_rate(self, sweep_result):
        table = rate_distortion_table(sweep_result)
        for points in table.values():
            for point in points:
                assert point.mean_compression_ratio == pytest.approx(
                    64.0 / point.mean_bit_rate, rel=0.25
                )
