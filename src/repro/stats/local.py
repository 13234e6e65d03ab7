"""Local (windowed) variogram statistics.

The global variogram range summarises an *average* correlation range of the
whole field; it cannot express spatial heterogeneity or the coexistence of
several correlation scales.  The paper therefore estimates the variogram
range inside every ``H x H`` window tiling the field (H = 32) and reports
the **standard deviation of the local ranges** — "Std estimated of local
variogram range (H=32)" — as a measure of the spatial diversity of local
correlation.  That statistic is the x-axis of Figure 5 and the left column
of Figure 7.  A 3D volume is tiled into ``H x H x H`` cubes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.stats.variogram import VariogramConfig
from repro.stats.variogram_models import variogram_ranges
from repro.stats.windows import field_windows, window_grid_shape

__all__ = ["LocalVariogramResult", "local_variogram_ranges", "std_local_variogram_range"]


@dataclass(frozen=True)
class LocalVariogramResult:
    """Per-window variogram ranges and their summary statistics.

    Attributes
    ----------
    window:
        Window size H used for the tiling.
    ranges:
        Array of fitted ranges, one per complete window, with the field's
        number of axes (NaN where the fit failed or the window was
        degenerate, e.g. constant data).
    """

    window: int
    ranges: np.ndarray

    @property
    def valid_ranges(self) -> np.ndarray:
        """Fitted ranges with failed windows removed."""

        flat = self.ranges.ravel()
        return flat[np.isfinite(flat)]

    @property
    def mean(self) -> float:
        """Mean local variogram range."""

        valid = self.valid_ranges
        return float(valid.mean()) if valid.size else float("nan")

    @property
    def std(self) -> float:
        """Standard deviation of the local variogram ranges (the paper's statistic)."""

        valid = self.valid_ranges
        return float(valid.std()) if valid.size else float("nan")

    @property
    def n_windows(self) -> int:
        return int(self.ranges.size)

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.ranges)))


def local_variogram_ranges(
    field: np.ndarray,
    window: int = 32,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
) -> LocalVariogramResult:
    """Estimate the variogram range inside every complete ``window`` tile.

    ``field`` is a 2D field tiled into ``window x window`` squares or a 3D
    volume tiled into ``window^3`` cubes.  All windows are estimated and
    fitted as one stack.  Windows whose data are (numerically) constant
    carry no correlation information and yield NaN, as do windows holding
    NaN or inf and all windows when the variogram has fewer than 3 bins;
    they are excluded from the summary statistics, mirroring how
    degenerate windows are dropped in practice.
    """

    if config is None:
        # Local windows are small; a max lag of half the window keeps enough
        # pairs per bin for a stable fit.
        config = VariogramConfig(max_lag=window / 2.0, bin_width=1.0)

    windows = [tile for _, tile in field_windows(field, window)]
    finite = np.array([np.isfinite(tile).all() for tile in windows], dtype=bool)
    ranges = np.full(window_grid_shape(np.shape(field), window), np.nan)
    ranges.flat[finite] = variogram_ranges(
        [tile for tile, ok in zip(windows, finite) if ok], model=model, config=config
    )
    return LocalVariogramResult(window=window, ranges=ranges)


def std_local_variogram_range(
    field: np.ndarray,
    window: int = 32,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
) -> float:
    """The paper's local statistic: std of the windowed variogram ranges."""

    return local_variogram_ranges(field, window, model=model, config=config).std
