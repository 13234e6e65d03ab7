"""Per-figure experiment drivers.

Each ``figureN_*`` function reproduces the computation behind one figure of
the paper and returns the plotted series (x values, compression ratios and
the fitted logarithmic regression per compressor / error bound), so the
benchmark harness and the examples can print exactly the rows the paper
plots.  No plotting is performed here — the output is plain data.

Figure map (see DESIGN.md for the full experiment index):

* Figure 1 — anatomy of a variogram (nugget / sill / range).
* Figure 2 — gallery of the datasets (summary statistics per field).
* Figure 3 — CR vs *global* variogram range, single- and multi-range
  Gaussian fields.
* Figure 4 — CR vs global variogram range, Miranda slices.
* Figure 5 — CR vs std of *local* variogram range (H=32), Gaussian fields.
* Figure 6 — CR vs std of local SVD truncation level, Gaussian fields
  (SZ and ZFP only, as in the paper).
* Figure 7 — Miranda: CR vs both local statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.pipeline import ExperimentResult, run_experiment
from repro.core.regression import LogRegressionFit, fit_log_regression
from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.registry import DatasetRegistry, default_registry
from repro.stats.variogram import VariogramConfig, empirical_variogram
from repro.stats.variogram_models import fit_variogram
from repro.utils.parallel import ParallelConfig
from repro.utils.rng import SeedLike

__all__ = [
    "FigureSeries",
    "series_from_result",
    "figure1_variogram_anatomy",
    "figure2_dataset_gallery",
    "figure3_global_range_gaussian",
    "figure4_global_range_miranda",
    "figure5_local_range_gaussian",
    "figure6_local_svd_gaussian",
    "figure7_local_stats_miranda",
]

#: Statistic keys accepted by :func:`series_from_result`.
STATISTIC_KEYS = (
    "global_variogram_range",
    "std_local_variogram_range",
    "std_local_svd_truncation",
)


@dataclass(frozen=True)
class FigureSeries:
    """One plotted curve: a compressor at one error bound on one dataset."""

    figure: str
    dataset: str
    statistic: str
    compressor: str
    error_bound: float
    x: np.ndarray
    compression_ratios: np.ndarray
    fit: Optional[LogRegressionFit]

    @property
    def n_points(self) -> int:
        return int(self.x.size)


def series_from_result(
    result: ExperimentResult,
    statistic: str,
    *,
    figure: str,
    compressors: Optional[Sequence[str]] = None,
    max_error_bound: Optional[float] = None,
) -> List[FigureSeries]:
    """Group experiment records into per-(compressor, bound) figure series.

    ``max_error_bound`` reproduces the paper's trick of restricting SZ's
    Miranda panels to bounds strictly below 1e-2 "to ease the reading".
    """

    if statistic not in STATISTIC_KEYS:
        raise ValueError(f"statistic must be one of {STATISTIC_KEYS}, got {statistic!r}")
    wanted = list(compressors) if compressors is not None else result.compressors
    series: List[FigureSeries] = []
    for compressor in wanted:
        for bound in result.error_bounds:
            if max_error_bound is not None and bound >= max_error_bound:
                continue
            records = result.filter(compressor=compressor, error_bound=bound)
            if not records:
                continue
            x = np.array([r.statistics.as_dict()[statistic] for r in records])
            cr = np.array([r.compression_ratio for r in records])
            fit: Optional[LogRegressionFit]
            valid = np.isfinite(x) & np.isfinite(cr) & (x > 0)
            try:
                fit = fit_log_regression(x[valid], cr[valid]) if valid.sum() >= 2 else None
            except ValueError:
                fit = None
            series.append(
                FigureSeries(
                    figure=figure,
                    dataset=result.dataset,
                    statistic=statistic,
                    compressor=compressor,
                    error_bound=bound,
                    x=x,
                    compression_ratios=cr,
                    fit=fit,
                )
            )
    return series


# ----------------------------------------------------------------------
# Figure 1 and 2: illustrative figures
# ----------------------------------------------------------------------
def figure1_variogram_anatomy(
    *,
    shape: Tuple[int, int] = (128, 128),
    correlation_range: float = 16.0,
    seed: SeedLike = 0,
) -> Dict[str, object]:
    """Empirical variogram of one Gaussian field plus the fitted parameters.

    Reproduces the content of the paper's Figure 1: a variogram curve
    annotated with nugget, sill and range.
    """

    field = generate_gaussian_field(shape, correlation_range, seed=seed)
    variogram = empirical_variogram(field, VariogramConfig())
    fitted = fit_variogram(variogram, fit_nugget=True)
    return {
        "lags": variogram.lags,
        "semivariance": variogram.values,
        "pair_counts": variogram.pair_counts,
        "fitted": fitted,
        "true_range": correlation_range,
        "field_variance": variogram.field_variance,
    }


def figure2_dataset_gallery(
    *,
    registry: Optional[DatasetRegistry] = None,
    seed: SeedLike = 0,
) -> Dict[str, List[Dict[str, float]]]:
    """Summary statistics of every field in each of the paper's datasets.

    The original Figure 2 shows the fields as images; without plotting we
    report per-field summaries (shape, min/max/mean/std) demonstrating the
    datasets were generated and cover distinct correlation regimes.
    """

    registry = registry or default_registry()
    gallery: Dict[str, List[Dict[str, float]]] = {}
    for name in registry.names():
        fields = registry.create(name, seed=seed)
        # Figure 2 shows 2D imagery; volume workloads (3D fields, e.g.
        # "miranda-volume") belong to the volumes pipeline, not the gallery.
        entries = [
            {
                "label": label,
                "rows": field.shape[0],
                "cols": field.shape[1],
                "min": float(field.min()),
                "max": float(field.max()),
                "mean": float(field.mean()),
                "std": float(field.std()),
            }
            for label, field in fields
            if np.asarray(field).ndim == 2
        ]
        if entries:
            gallery[name] = entries
    return gallery


# ----------------------------------------------------------------------
# Figures 3-7: quantitative results
# ----------------------------------------------------------------------
def _gaussian_pair_results(
    config: ExperimentConfig,
    registry: Optional[DatasetRegistry],
    seed: SeedLike,
    parallel: Optional[ParallelConfig],
) -> Tuple[ExperimentResult, ExperimentResult]:
    registry = registry or default_registry()
    single = run_experiment(
        "gaussian-single", config=config, registry=registry, seed=seed, parallel=parallel
    )
    multi = run_experiment(
        "gaussian-multi", config=config, registry=registry, seed=seed, parallel=parallel
    )
    return single, multi


def figure3_global_range_gaussian(
    *,
    config: Optional[ExperimentConfig] = None,
    registry: Optional[DatasetRegistry] = None,
    seed: SeedLike = 0,
    parallel: Optional[ParallelConfig] = None,
    results: Optional[Tuple[ExperimentResult, ExperimentResult]] = None,
) -> Dict[str, List[FigureSeries]]:
    """Figure 3: CR vs estimated global variogram range on Gaussian fields.

    Returns ``{"single": [...], "multi": [...]}`` — the left and right
    columns of the paper's figure.
    """

    config = config or ExperimentConfig(compute_local_variogram=False, compute_local_svd=False)
    if results is None:
        results = _gaussian_pair_results(config, registry, seed, parallel)
    single, multi = results
    return {
        "single": series_from_result(single, "global_variogram_range", figure="figure3"),
        "multi": series_from_result(multi, "global_variogram_range", figure="figure3"),
    }


def figure4_global_range_miranda(
    *,
    config: Optional[ExperimentConfig] = None,
    registry: Optional[DatasetRegistry] = None,
    seed: SeedLike = 0,
    parallel: Optional[ParallelConfig] = None,
    result: Optional[ExperimentResult] = None,
) -> Dict[str, List[FigureSeries]]:
    """Figure 4: CR vs global variogram range for Miranda velocityx slices.

    ``"all"`` holds every bound; ``"sz_restricted"`` reproduces the paper's
    right-hand SZ panel limited to bounds strictly below 1e-2.
    """

    config = config or ExperimentConfig(compute_local_variogram=False, compute_local_svd=False)
    if result is None:
        result = run_experiment(
            "miranda", config=config, registry=registry, seed=seed, parallel=parallel
        )
    return {
        "all": series_from_result(result, "global_variogram_range", figure="figure4"),
        "sz_restricted": series_from_result(
            result,
            "global_variogram_range",
            figure="figure4",
            compressors=["sz"],
            max_error_bound=1e-2,
        ),
    }


def figure5_local_range_gaussian(
    *,
    config: Optional[ExperimentConfig] = None,
    registry: Optional[DatasetRegistry] = None,
    seed: SeedLike = 0,
    parallel: Optional[ParallelConfig] = None,
    results: Optional[Tuple[ExperimentResult, ExperimentResult]] = None,
) -> Dict[str, List[FigureSeries]]:
    """Figure 5: CR vs std of the local variogram range (H=32), Gaussian fields."""

    config = config or ExperimentConfig(compute_global_range=False, compute_local_svd=False)
    if results is None:
        results = _gaussian_pair_results(config, registry, seed, parallel)
    single, multi = results
    return {
        "single": series_from_result(single, "std_local_variogram_range", figure="figure5"),
        "multi": series_from_result(multi, "std_local_variogram_range", figure="figure5"),
    }


def figure6_local_svd_gaussian(
    *,
    config: Optional[ExperimentConfig] = None,
    registry: Optional[DatasetRegistry] = None,
    seed: SeedLike = 0,
    parallel: Optional[ParallelConfig] = None,
    results: Optional[Tuple[ExperimentResult, ExperimentResult]] = None,
) -> Dict[str, List[FigureSeries]]:
    """Figure 6: CR vs std of local SVD truncation level, Gaussian fields.

    As in the paper, MGARD is omitted (it showed little sensitivity to the
    correlation statistics).
    """

    config = config or ExperimentConfig(
        compressors=("sz", "zfp"), compute_global_range=False, compute_local_variogram=False
    )
    if results is None:
        results = _gaussian_pair_results(config, registry, seed, parallel)
    single, multi = results
    return {
        "single": series_from_result(
            single, "std_local_svd_truncation", figure="figure6", compressors=["sz", "zfp"]
        ),
        "multi": series_from_result(
            multi, "std_local_svd_truncation", figure="figure6", compressors=["sz", "zfp"]
        ),
    }


def figure7_local_stats_miranda(
    *,
    config: Optional[ExperimentConfig] = None,
    registry: Optional[DatasetRegistry] = None,
    seed: SeedLike = 0,
    parallel: Optional[ParallelConfig] = None,
    result: Optional[ExperimentResult] = None,
) -> Dict[str, List[FigureSeries]]:
    """Figure 7: Miranda CR vs both local statistics.

    Keys: ``"local_variogram"`` (left column), ``"local_svd"`` (right
    column) and ``"sz_restricted_*"`` for the SZ panels limited to bounds
    below 1e-2 (the paper's readability restriction).
    """

    config = config or ExperimentConfig(compute_global_range=False)
    if result is None:
        result = run_experiment(
            "miranda", config=config, registry=registry, seed=seed, parallel=parallel
        )
    return {
        "local_variogram": series_from_result(
            result, "std_local_variogram_range", figure="figure7"
        ),
        "local_svd": series_from_result(result, "std_local_svd_truncation", figure="figure7"),
        "sz_restricted_local_variogram": series_from_result(
            result,
            "std_local_variogram_range",
            figure="figure7",
            compressors=["sz"],
            max_error_bound=1e-2,
        ),
        "sz_restricted_local_svd": series_from_result(
            result,
            "std_local_svd_truncation",
            figure="figure7",
            compressors=["sz"],
            max_error_bound=1e-2,
        ),
    }
