"""Single-field measurement step and the experiment record types.

One *record* is the paper's atomic observation: a field (dataset label),
one compressor, one error bound, the resulting compression ratio, plus the
correlation statistics of the field.  The pipeline
(:mod:`repro.core.pipeline`) assembles many records into tables; the figure
drivers (:mod:`repro.core.figures`) slice and fit them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.pressio.api import compress_and_measure
from repro.pressio.metrics import CompressionMetrics
from repro.stats.local import std_local_variogram_range
from repro.stats.svd import std_local_svd_truncation
from repro.stats.variogram_models import estimate_variogram_range
from repro.utils.validation import ensure_ndim

__all__ = [
    "ExperimentConfig",
    "CorrelationStatistics",
    "CompressionRecord",
    "measure_statistics",
    "measure_field",
]

#: The error bounds the paper sweeps for every compressor.
PAPER_ERROR_BOUNDS: Tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2)
#: The compressors the paper evaluates.
PAPER_COMPRESSORS: Tuple[str, ...] = ("sz", "zfp", "mgard")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment sweep.

    Attributes
    ----------
    compressors:
        Compressor names (registry keys).
    error_bounds:
        Absolute error bounds (the paper sweeps 1e-5 ... 1e-2).
    window:
        Window size H for the local statistics (32 in the paper).
    svd_energy:
        Variance fraction for the local SVD truncation level (0.99).
    compute_local_variogram / compute_local_svd / compute_global_range:
        Toggles for the (comparatively expensive) statistics; figure
        drivers enable only what they need.
    """

    compressors: Tuple[str, ...] = PAPER_COMPRESSORS
    error_bounds: Tuple[float, ...] = PAPER_ERROR_BOUNDS
    window: int = 32
    svd_energy: float = 0.99
    compute_global_range: bool = True
    compute_local_variogram: bool = True
    compute_local_svd: bool = True

    def __post_init__(self) -> None:
        if not self.compressors:
            raise ValueError("at least one compressor is required")
        if not self.error_bounds:
            raise ValueError("at least one error bound is required")
        if any(b <= 0 for b in self.error_bounds):
            raise ValueError("error bounds must be positive")
        if self.window < 4:
            raise ValueError("window must be >= 4")
        if not 0 < self.svd_energy <= 1:
            raise ValueError("svd_energy must be in (0, 1]")


@dataclass(frozen=True)
class CorrelationStatistics:
    """Correlation statistics of one field (the x-axes of the figures).

    ``nan`` marks statistics that were not requested or could not be
    estimated for the field.
    """

    global_variogram_range: float = float("nan")
    std_local_variogram_range: float = float("nan")
    std_local_svd_truncation: float = float("nan")
    field_variance: float = float("nan")
    field_mean: float = float("nan")

    def as_dict(self) -> Dict[str, float]:
        return {
            "global_variogram_range": self.global_variogram_range,
            "std_local_variogram_range": self.std_local_variogram_range,
            "std_local_svd_truncation": self.std_local_svd_truncation,
            "field_variance": self.field_variance,
            "field_mean": self.field_mean,
        }


@dataclass(frozen=True)
class CompressionRecord:
    """One (field, compressor, error bound) observation."""

    dataset: str
    field_label: str
    compressor: str
    error_bound: float
    compression_ratio: float
    metrics: CompressionMetrics
    statistics: CorrelationStatistics

    def as_dict(self) -> Dict[str, float]:
        """Flatten the record into a plain dictionary (one table row)."""

        row: Dict[str, float] = {
            "dataset": self.dataset,
            "field_label": self.field_label,
            "compressor": self.compressor,
            "error_bound": self.error_bound,
            "compression_ratio": self.compression_ratio,
        }
        row.update({f"metric_{k}": v for k, v in self.metrics.as_dict().items()})
        row.update(self.statistics.as_dict())
        return row


def _fitted(statistic, *args) -> float:
    """``statistic(*args)``, or NaN where the field cannot be fitted."""

    try:
        return float(statistic(*args))
    except ValueError:
        return float("nan")


def measure_statistics(
    field: np.ndarray, config: ExperimentConfig | None = None
) -> CorrelationStatistics:
    """Compute the requested correlation statistics of one 2D field or 3D volume.

    A variogram statistic that rejects the field with ``ValueError`` (not
    finite, or under two points along an axis) records NaN.  The local SVD
    statistic has no 3D analogue and stays NaN for volumes.
    """

    field = ensure_ndim(field, (2, 3), "field")
    config = config or ExperimentConfig()
    has_windows = min(field.shape) >= config.window

    global_range = float("nan")
    if config.compute_global_range:
        global_range = _fitted(estimate_variogram_range, field)

    std_local_range = float("nan")
    if config.compute_local_variogram and has_windows:
        std_local_range = _fitted(std_local_variogram_range, field, config.window)

    std_local_svd = float("nan")
    if config.compute_local_svd and has_windows and field.ndim == 2:
        std_local_svd = std_local_svd_truncation(field, config.window, config.svd_energy)

    return CorrelationStatistics(
        global_variogram_range=global_range,
        std_local_variogram_range=std_local_range,
        std_local_svd_truncation=std_local_svd,
        field_variance=float(np.var(field)),
        field_mean=float(np.mean(field)),
    )


def measure_field(
    field: np.ndarray,
    *,
    dataset: str,
    field_label: str,
    config: ExperimentConfig | None = None,
    statistics: Optional[CorrelationStatistics] = None,
) -> List[CompressionRecord]:
    """Compress one 2D field or 3D volume with every (compressor, bound) pair.

    A volume is compressed whole, like a field.  The correlation
    statistics are computed once per field (they do not depend on the
    compressor) and shared across the records; see
    :func:`measure_statistics` for what they are on a volume.
    """

    field = ensure_ndim(field, (2, 3), "field")
    config = config or ExperimentConfig()
    if statistics is None:
        statistics = measure_statistics(field, config)

    records: List[CompressionRecord] = []
    for compressor_name in config.compressors:
        for bound in config.error_bounds:
            compressed, metrics = compress_and_measure(field, compressor_name, bound)
            records.append(
                CompressionRecord(
                    dataset=dataset,
                    field_label=field_label,
                    compressor=compressor_name,
                    error_bound=bound,
                    compression_ratio=metrics.compression_ratio,
                    metrics=metrics,
                    statistics=statistics,
                )
            )
    return records
