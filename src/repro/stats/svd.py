"""Local SVD truncation-level statistics.

The paper's "multiscale" statistic: every ``H x H`` window is decomposed
with an SVD and the number of singular modes needed to capture 99 % of the
window's variance (energy) is recorded; the **standard deviation of that
truncation level across windows** — "Std of truncation level of local SVD
(H=32)" — summarises the diversity of local complexity.  Windows that need
many modes are locally rough / information-rich and hence less
compressible, so the paper expects a mostly decreasing relationship between
compression ratio and this statistic (Figures 6 and 7, right column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.windows import field_windows, window_grid_shape
from repro.utils.validation import ensure_2d

__all__ = [
    "svd_truncation_level",
    "LocalSVDResult",
    "local_svd_truncation_levels",
    "std_local_svd_truncation",
]


def svd_truncation_level(
    window: np.ndarray, energy_fraction: float = 0.99, *, center: bool = True
) -> int:
    """Number of singular modes needed to capture ``energy_fraction`` of variance.

    Parameters
    ----------
    window:
        2D array (one window of the field).
    energy_fraction:
        Target fraction of the total squared singular value mass
        (0.99 in the paper).
    center:
        Subtract the window mean first so the statistic measures variance
        structure rather than the mean offset (which a single rank-1 mode
        would otherwise absorb).
    """

    window = ensure_2d(window, "window")
    if not 0.0 < energy_fraction <= 1.0:
        raise ValueError("energy_fraction must be in (0, 1]")
    data = np.asarray(window, dtype=np.float64)
    if center:
        data = data - data.mean()
    # Constant window: zero variance, a single mode (trivially) suffices.
    if float(np.abs(data).max(initial=0.0)) < 1e-300:
        return 1
    singular_values = np.linalg.svd(data, compute_uv=False)
    energy = singular_values**2
    total = energy.sum()
    if total <= 0:
        return 1
    cumulative = np.cumsum(energy) / total
    return int(np.searchsorted(cumulative, energy_fraction) + 1)


@dataclass(frozen=True)
class LocalSVDResult:
    """Per-window SVD truncation levels and their summary statistics."""

    window: int
    energy_fraction: float
    levels: np.ndarray

    @property
    def std(self) -> float:
        """The paper's statistic: std of local SVD truncation levels."""

        return float(self.levels.std()) if self.levels.size else float("nan")


def local_svd_truncation_levels(
    field: np.ndarray,
    window: int = 32,
    energy_fraction: float = 0.99,
    *,
    center: bool = True,
) -> LocalSVDResult:
    """Compute the SVD truncation level for every complete ``window`` tile."""

    field = ensure_2d(field, "field")
    levels = np.zeros(window_grid_shape(field.shape, window), dtype=np.int64)
    for index, tile in field_windows(field, window):
        levels[index] = svd_truncation_level(
            tile, energy_fraction=energy_fraction, center=center
        )
    return LocalSVDResult(window=window, energy_fraction=energy_fraction, levels=levels)


def std_local_svd_truncation(
    field: np.ndarray,
    window: int = 32,
    energy_fraction: float = 0.99,
    *,
    center: bool = True,
) -> float:
    """The paper's statistic: std of the windowed SVD truncation levels."""

    return local_svd_truncation_levels(
        field, window, energy_fraction, center=center
    ).std
