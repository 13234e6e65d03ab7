"""Directional variograms and the volume-only variogram range.

The paper analyses 2D slices with an isotropic variogram and flags "a
design of the statistics to a 3D context" as future work.  The isotropic
estimators in :mod:`repro.stats.variogram`, :mod:`repro.stats.variogram_models`
and :mod:`repro.stats.local` take 3D volumes directly; this module adds

* :func:`directional_variogram` — semi-variograms restricted to the grid
  axes (row / column direction) of a 2D field, exposing anisotropy that
  the isotropic estimate averages away;
* :func:`anisotropy_ratio` — ratio of the per-axis fitted ranges of a 2D
  field (1 for isotropic data), a cheap diagnostic for when the isotropic
  range is a questionable summary;
* :func:`estimate_variogram_range_3d` — the general range estimate under
  a volume-only name, which rejects any input that is not 3D.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.stats.variogram import EmpiricalVariogram, VariogramConfig
from repro.stats.variogram_models import estimate_variogram_range, fit_variogram
from repro.utils.validation import ensure_2d, ensure_float_array, ensure_ndim

__all__ = [
    "directional_variogram",
    "anisotropy_ratio",
    "estimate_variogram_range_3d",
]


def directional_variogram(
    field: np.ndarray, axis: int, max_lag: Optional[int] = None
) -> EmpiricalVariogram:
    """Semi-variogram of a 2D field along one grid axis.

    Only pairs separated strictly along ``axis`` contribute; lags are the
    integers ``1..max_lag``.
    """

    field = ensure_float_array(ensure_2d(field, "field"))
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    length = field.shape[axis]
    if max_lag is None:
        max_lag = length // 2
    max_lag = int(min(max_lag, length - 1))
    if max_lag < 1:
        raise ValueError("field too small along the requested axis")

    data = field if axis == 0 else field.T
    lags = np.arange(1, max_lag + 1, dtype=np.float64)
    values = np.empty(max_lag)
    counts = np.empty(max_lag, dtype=np.int64)
    for lag in range(1, max_lag + 1):
        diff = data[lag:, :] - data[:-lag, :]
        counts[lag - 1] = diff.size
        values[lag - 1] = 0.5 * float(np.mean(diff**2)) if diff.size else 0.0
    return EmpiricalVariogram(
        lags=lags,
        values=values,
        pair_counts=counts,
        field_variance=float(field.var()),
    )


def anisotropy_ratio(field: np.ndarray, max_lag: Optional[int] = None) -> float:
    """Ratio of the fitted row-direction range to the column-direction range.

    Values near 1 indicate isotropy (the paper's synthetic fields); values
    far from 1 flag fields whose isotropic variogram range is an average of
    genuinely different directional scales.
    """

    row_variogram = directional_variogram(field, axis=0, max_lag=max_lag)
    col_variogram = directional_variogram(field, axis=1, max_lag=max_lag)
    row_range = fit_variogram(row_variogram).range
    col_range = fit_variogram(col_variogram).range
    if col_range <= 0:
        return float("inf")
    return float(row_range / col_range)


def estimate_variogram_range_3d(
    volume: np.ndarray,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
) -> float:
    """Fitted variogram range of a 3D volume (volumetric analogue of Fig. 3's x-axis)."""

    volume = ensure_ndim(volume, (3,), "volume")
    return estimate_variogram_range(volume, model=model, config=config)
