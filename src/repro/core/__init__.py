"""Core analysis layer: from fields to the paper's figures.

* :mod:`repro.core.regression` -- the logarithmic regression
  ``CR = alpha + beta * log(statistic)`` the paper fits to every
  (compressor, error bound) series, plus goodness-of-fit summaries.
* :mod:`repro.core.experiment` -- the record types and the single-field
  measurement step (correlation statistics + compression ratios).
* :mod:`repro.core.pipeline` -- sweeps over datasets x compressors x error
  bounds, optionally in parallel, producing tidy tables of records.
* :mod:`repro.core.figures` -- one driver per paper figure (3-7) returning
  the plotted series and fitted coefficients.
* :mod:`repro.core.limits` -- plateau / compressibility-limit detection on
  CR-vs-range curves (the paper's observation that CR saturates for highly
  correlated fields).
* :mod:`repro.core.predictor` -- the future-work extension: predict CR from
  correlation statistics and the error bound.
"""

from repro.core.regression import LogRegressionFit, fit_log_regression
from repro.core.experiment import (
    CompressionRecord,
    CorrelationStatistics,
    ExperimentConfig,
    measure_field,
    measure_statistics,
)
from repro.core.pipeline import ExperimentResult, run_experiment, records_to_table
from repro.core.figures import (
    FigureSeries,
    figure1_variogram_anatomy,
    figure2_dataset_gallery,
    figure3_global_range_gaussian,
    figure4_global_range_miranda,
    figure5_local_range_gaussian,
    figure6_local_svd_gaussian,
    figure7_local_stats_miranda,
)
from repro.core.limits import PlateauEstimate, estimate_compressibility_plateau
from repro.core.predictor import CompressionRatioPredictor, PredictorReport
from repro.core.reporting import (
    format_table,
    records_to_csv,
    series_to_markdown,
    write_records_csv,
)

__all__ = [
    "LogRegressionFit",
    "fit_log_regression",
    "CompressionRecord",
    "CorrelationStatistics",
    "ExperimentConfig",
    "measure_field",
    "measure_statistics",
    "ExperimentResult",
    "run_experiment",
    "records_to_table",
    "FigureSeries",
    "figure1_variogram_anatomy",
    "figure2_dataset_gallery",
    "figure3_global_range_gaussian",
    "figure4_global_range_miranda",
    "figure5_local_range_gaussian",
    "figure6_local_svd_gaussian",
    "figure7_local_stats_miranda",
    "PlateauEstimate",
    "estimate_compressibility_plateau",
    "CompressionRatioPredictor",
    "PredictorReport",
    "format_table",
    "records_to_csv",
    "write_records_csv",
    "series_to_markdown",
]
