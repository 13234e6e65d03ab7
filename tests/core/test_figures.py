"""Tests for repro.core.figures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.figures import (
    figure1_variogram_anatomy,
    figure2_dataset_gallery,
    figure3_global_range_gaussian,
    figure4_global_range_miranda,
    series_from_result,
)
from repro.core.pipeline import run_experiment
from repro.datasets.registry import default_registry

# Small shared setup so the figure tests stay fast: tiny fields, two
# compressors, two bounds.
FAST_CONFIG = ExperimentConfig(
    compressors=("sz", "zfp"),
    error_bounds=(1e-3, 1e-2),
    compute_local_variogram=False,
    compute_local_svd=False,
)
SMALL_REGISTRY = default_registry(gaussian_shape=(64, 64), miranda_shape=(8, 64, 64))


@pytest.fixture(scope="module")
def gaussian_single_result():
    return run_experiment(
        "gaussian-single", config=FAST_CONFIG, registry=SMALL_REGISTRY, seed=0
    )


class TestFigure1:
    def test_returns_variogram_and_fit(self):
        result = figure1_variogram_anatomy(shape=(64, 64), correlation_range=8.0, seed=0)
        assert len(result["lags"]) == len(result["semivariance"])
        fitted = result["fitted"]
        assert fitted.range > 0
        assert fitted.sill > 0
        # The fitted range must be in the vicinity of the generative range.
        assert fitted.range == pytest.approx(8.0, rel=0.5)

    def test_semivariance_increases_with_lag_initially(self):
        result = figure1_variogram_anatomy(shape=(64, 64), correlation_range=12.0, seed=1)
        values = result["semivariance"]
        assert values[0] < values[len(values) // 2]


class TestFigure2:
    def test_gallery_covers_all_datasets(self):
        gallery = figure2_dataset_gallery(registry=SMALL_REGISTRY, seed=0)
        assert {"gaussian-single", "gaussian-multi", "miranda"} <= set(gallery)
        for entries in gallery.values():
            assert len(entries) >= 1
            for entry in entries:
                assert entry["rows"] > 0 and entry["cols"] > 0
                assert np.isfinite(entry["std"])


class TestSeriesFromResult:
    def test_one_series_per_compressor_bound(self, gaussian_single_result):
        series = series_from_result(
            gaussian_single_result, "global_variogram_range", figure="figure3"
        )
        assert len(series) == 2 * 2
        for entry in series:
            assert entry.n_points == len(SMALL_REGISTRY.create("gaussian-single", seed=0))
            assert entry.figure == "figure3"

    def test_max_error_bound_filter(self, gaussian_single_result):
        series = series_from_result(
            gaussian_single_result,
            "global_variogram_range",
            figure="figure4",
            compressors=["sz"],
            max_error_bound=1e-2,
        )
        assert all(s.error_bound < 1e-2 for s in series)

    def test_unknown_statistic_rejected(self, gaussian_single_result):
        with pytest.raises(ValueError):
            series_from_result(gaussian_single_result, "entropy", figure="x")


class TestFigure3:
    def test_structure_and_positive_slopes(self, gaussian_single_result):
        multi_result = run_experiment(
            "gaussian-multi", config=FAST_CONFIG, registry=SMALL_REGISTRY, seed=0
        )
        output = figure3_global_range_gaussian(
            results=(gaussian_single_result, multi_result)
        )
        assert set(output) == {"single", "multi"}
        # On single-range fields, SZ and ZFP must show an increasing
        # CR-vs-range relationship (beta > 0) at every bound.
        for series in output["single"]:
            if series.compressor in ("sz", "zfp") and series.fit is not None:
                assert series.fit.beta > 0


class TestFigure4:
    def test_miranda_series_and_sz_restriction(self):
        result = run_experiment(
            "miranda", config=FAST_CONFIG, registry=SMALL_REGISTRY, seed=0
        )
        output = figure4_global_range_miranda(result=result)
        assert set(output) == {"all", "sz_restricted"}
        assert all(s.compressor == "sz" for s in output["sz_restricted"])
        assert all(s.error_bound < 1e-2 for s in output["sz_restricted"])
        assert len(output["all"]) == 4
