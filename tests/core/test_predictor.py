"""Tests for repro.core.predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import CompressionRecord, CorrelationStatistics
from repro.core.predictor import CompressionRatioPredictor
from repro.pressio.metrics import CompressionMetrics


def _metrics(cr: float) -> CompressionMetrics:
    return CompressionMetrics(
        compression_ratio=cr,
        bit_rate=64.0 / cr,
        max_abs_error=1e-4,
        rmse=1e-5,
        psnr=80.0,
        value_range=1.0,
        error_bound=1e-3,
        bound_satisfied=True,
    )


def _record(compressor: str, bound: float, cr: float, global_range: float) -> CompressionRecord:
    return CompressionRecord(
        dataset="synthetic",
        field_label=f"a{global_range}",
        compressor=compressor,
        error_bound=bound,
        compression_ratio=cr,
        metrics=_metrics(cr),
        statistics=CorrelationStatistics(
            global_variogram_range=global_range,
            std_local_variogram_range=global_range / 3.0,
            std_local_svd_truncation=2.0 / global_range,
        ),
    )


def _synthetic_records(compressor="sz", alpha=20.0, beta=3.0, bound_coeff=2.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for global_range in (2.0, 4.0, 8.0, 16.0, 32.0):
        for bound in (1e-4, 1e-3, 1e-2):
            cr = (
                alpha
                + beta * np.log(global_range)
                + bound_coeff * np.log10(bound)
                + (rng.normal(0, noise) if noise else 0.0)
            )
            records.append(_record(compressor, bound, max(cr, 0.1), global_range))
    return records


class TestCompressionRatioPredictor:
    def test_fits_synthetic_linear_model_exactly(self):
        records = _synthetic_records()
        predictor = CompressionRatioPredictor()
        reports = predictor.fit(records)
        assert len(reports) == 1
        report = reports[0]
        assert report.compressor == "sz"
        assert report.r_squared == pytest.approx(1.0, abs=1e-9)
        predicted = predictor.predict(records)
        actual = np.array([r.compression_ratio for r in records])
        np.testing.assert_allclose(predicted, actual, atol=1e-8)

    def test_noise_degrades_but_keeps_explanatory_power(self):
        records = _synthetic_records(noise=0.5, seed=1)
        reports = CompressionRatioPredictor().fit(records)
        assert 0.7 < reports[0].r_squared < 1.0

    def test_multiple_compressors_get_separate_models(self):
        records = _synthetic_records("sz") + _synthetic_records("zfp", beta=1.0)
        predictor = CompressionRatioPredictor()
        reports = predictor.fit(records)
        assert {r.compressor for r in reports} == {"sz", "zfp"}

    def test_predict_unknown_compressor_raises(self):
        predictor = CompressionRatioPredictor()
        predictor.fit(_synthetic_records("sz"))
        with pytest.raises(KeyError):
            predictor.predict(_synthetic_records("zfp"))

    def test_feature_subset(self):
        records = _synthetic_records()
        predictor = CompressionRatioPredictor(
            features=("log_global_variogram_range", "log10_error_bound")
        )
        reports = predictor.fit(records)
        assert set(reports[0].coefficients) == {
            "intercept",
            "log_global_variogram_range",
            "log10_error_bound",
        }

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            CompressionRatioPredictor(features=("entropy",))

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            CompressionRatioPredictor().fit([])

    def test_nan_features_are_dropped_from_design(self):
        records = _synthetic_records()
        # Knock out the SVD statistic everywhere: the model should still fit
        # using the remaining features.
        records = [
            CompressionRecord(
                dataset=r.dataset,
                field_label=r.field_label,
                compressor=r.compressor,
                error_bound=r.error_bound,
                compression_ratio=r.compression_ratio,
                metrics=r.metrics,
                statistics=CorrelationStatistics(
                    global_variogram_range=r.statistics.global_variogram_range,
                    std_local_variogram_range=r.statistics.std_local_variogram_range,
                    std_local_svd_truncation=float("nan"),
                ),
            )
            for r in records
        ]
        reports = CompressionRatioPredictor().fit(records)
        assert "log_std_local_svd_truncation" not in reports[0].coefficients
        assert reports[0].r_squared > 0.99
