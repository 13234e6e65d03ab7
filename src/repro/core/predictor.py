"""Compression-ratio prediction from correlation statistics (extension).

The paper's future-work item (iii) asks for "a model of compression ratio
based on correlation metrics and error bound".  This module implements a
simple, transparent version of that model: per compressor, an ordinary
least-squares linear model on engineered features

* ``log(statistic)`` for each available correlation statistic,
* ``log10(error_bound)``,
* an intercept,

trained on :class:`repro.core.experiment.CompressionRecord` lists produced
by the pipeline.  It is intentionally *not* a deep model (the related-work
section of the paper criticises the generalisation of black-box DNN
estimators); the point is to quantify how much of the CR variance the
correlation statistics explain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.experiment import CompressionRecord

__all__ = ["CompressionRatioPredictor", "PredictorReport"]

#: Features available for the regression design matrix.
FEATURE_NAMES = (
    "log_global_variogram_range",
    "log_std_local_variogram_range",
    "log_std_local_svd_truncation",
    "log10_error_bound",
)


@dataclass(frozen=True)
class PredictorReport:
    """Goodness-of-fit report of a trained predictor (per compressor)."""

    compressor: str
    n_samples: int
    r_squared: float
    mean_absolute_error: float
    median_relative_error: float
    coefficients: Dict[str, float]


class CompressionRatioPredictor:
    """Linear CR model on correlation statistics and the error bound.

    Parameters
    ----------
    features:
        Subset of :data:`FEATURE_NAMES` to use; the default uses every
        feature that is finite in the training records.
    """

    def __init__(self, features: Optional[Sequence[str]] = None) -> None:
        if features is not None:
            unknown = set(features) - set(FEATURE_NAMES)
            if unknown:
                raise ValueError(f"unknown features: {sorted(unknown)}")
            self.features: Tuple[str, ...] = tuple(features)
        else:
            self.features = FEATURE_NAMES
        self._models: Dict[str, np.ndarray] = {}
        self._feature_masks: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _raw_features(record: CompressionRecord) -> Dict[str, float]:
        stats = record.statistics
        return {
            "log_global_variogram_range": _safe_log(stats.global_variogram_range),
            "log_std_local_variogram_range": _safe_log(stats.std_local_variogram_range),
            "log_std_local_svd_truncation": _safe_log(stats.std_local_svd_truncation),
            "log10_error_bound": float(np.log10(record.error_bound)),
        }

    def _design_matrix(
        self, records: Sequence[CompressionRecord], feature_mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        raw = np.array(
            [[self._raw_features(r)[name] for name in self.features] for r in records],
            dtype=np.float64,
        )
        if feature_mask is None:
            feature_mask = np.all(np.isfinite(raw), axis=0)
            if not feature_mask.any():
                raise ValueError(
                    "no usable features: all candidate statistics are NaN in the records"
                )
        columns = raw[:, feature_mask]
        design = np.column_stack([np.ones(len(records)), columns])
        return design, feature_mask

    # ------------------------------------------------------------------
    def fit(self, records: Iterable[CompressionRecord]) -> List[PredictorReport]:
        """Fit one linear model per compressor present in the records."""

        records = list(records)
        if not records:
            raise ValueError("cannot fit on an empty record list")
        reports: List[PredictorReport] = []
        for compressor in sorted({r.compressor for r in records}):
            subset = [r for r in records if r.compressor == compressor]
            cr = np.array([r.compression_ratio for r in subset], dtype=np.float64)
            finite = np.isfinite(cr)
            subset = [r for r, ok in zip(subset, finite) if ok]
            cr = cr[finite]
            if len(subset) < 3:
                raise ValueError(
                    f"need at least 3 finite records for compressor {compressor!r}"
                )
            design, mask = self._design_matrix(subset)
            coeffs, _, _, _ = np.linalg.lstsq(design, cr, rcond=None)
            self._models[compressor] = coeffs
            self._feature_masks[compressor] = mask

            predicted = design @ coeffs
            residuals = cr - predicted
            ss_res = float(np.sum(residuals**2))
            ss_tot = float(np.sum((cr - cr.mean()) ** 2))
            r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
            mae = float(np.mean(np.abs(residuals)))
            rel = np.abs(residuals) / np.maximum(np.abs(cr), 1e-12)
            named = dict(
                zip(
                    ["intercept"] + [f for f, keep in zip(self.features, mask) if keep],
                    coeffs.tolist(),
                )
            )
            reports.append(
                PredictorReport(
                    compressor=compressor,
                    n_samples=len(subset),
                    r_squared=r_squared,
                    mean_absolute_error=mae,
                    median_relative_error=float(np.median(rel)),
                    coefficients=named,
                )
            )
        return reports

    def predict(self, records: Iterable[CompressionRecord]) -> np.ndarray:
        """Predict CR for records of already-fitted compressors."""

        records = list(records)
        out = np.empty(len(records), dtype=np.float64)
        for i, record in enumerate(records):
            if record.compressor not in self._models:
                raise KeyError(f"no model fitted for compressor {record.compressor!r}")
            mask = self._feature_masks[record.compressor]
            design, _ = self._design_matrix([record], feature_mask=mask)
            out[i] = float((design @ self._models[record.compressor])[0])
        return out


def _safe_log(value: float) -> float:
    """Natural log returning NaN for non-positive or non-finite input."""

    if not np.isfinite(value) or value <= 0:
        return float("nan")
    return float(np.log(value))
