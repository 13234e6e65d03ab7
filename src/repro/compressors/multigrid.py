"""Dyadic multigrid decomposition used by the MGARD-like compressor.

MGARD decomposes a field into multilevel coefficients defined on a
hierarchy of nested grids.  This module implements a dimension-general
(2D + 3D) version of that machinery:

* the hierarchy is built by **injection** (taking every other grid point in
  every dimension), level 0 being the original grid;
* the **prolongation** operator maps a coarse-level array back to the next
  finer level by separable linear interpolation;
* the **detail coefficients** of a level are the differences between the
  fine-level values and the prolongation of the coarse level.  Because the
  coarse grid is a subset of the fine grid (injection), details vanish at
  coarse grid points and only the complementary positions are stored.

Linear interpolation satisfies a maximum principle (the interpolated value
is a convex combination of coarse values), so a perturbation of the coarse
level by at most ``e`` perturbs the prolongation by at most ``e``; the
MGARD-like compressor exploits this to split the error budget across
levels additively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.validation import ensure_ndim, ensure_positive

__all__ = [
    "max_levels",
    "restrict",
    "prolong",
    "detail_mask",
    "MultigridDecomposition",
    "decompose",
]

#: Dimensionalities the decomposition supports.
SUPPORTED_NDIMS = (2, 3)


def max_levels(shape: Tuple[int, ...], min_size: int = 4) -> int:
    """Number of coarsening steps possible before a dimension drops below ``min_size``."""

    ensure_positive(min_size, "min_size")
    levels = 0
    dims = tuple(shape)
    while all((d + 1) // 2 >= min_size for d in dims):
        dims = tuple((d + 1) // 2 for d in dims)
        levels += 1
    return levels


def _even_slices(ndim: int) -> Tuple[slice, ...]:
    return (slice(None, None, 2),) * ndim


def restrict(field: np.ndarray) -> np.ndarray:
    """Injection restriction: keep grid points with even indices."""

    field = ensure_ndim(field, SUPPORTED_NDIMS, "field")
    return np.ascontiguousarray(field[_even_slices(field.ndim)])


def prolong(coarse: np.ndarray, fine_shape: Tuple[int, ...]) -> np.ndarray:
    """Separable linear interpolation of a coarse grid onto ``fine_shape``.

    The coarse grid is assumed to sit at even indices of the fine grid
    (the injection convention of :func:`restrict`).
    """

    coarse = ensure_ndim(coarse, SUPPORTED_NDIMS, "coarse")
    if len(fine_shape) != coarse.ndim:
        raise ValueError(
            f"fine_shape {fine_shape} does not match a {coarse.ndim}D coarse grid"
        )
    if coarse.ndim == 2:
        # Matrix-product fast path (also pins the historical 2D float
        # behaviour bit for bit).
        rows, cols = fine_shape
        row_weights = _interp_matrix(
            np.arange(rows, dtype=np.float64),
            np.arange(coarse.shape[0], dtype=np.float64) * 2.0,
        )
        col_weights = _interp_matrix(
            np.arange(cols, dtype=np.float64),
            np.arange(coarse.shape[1], dtype=np.float64) * 2.0,
        )
        return row_weights @ coarse @ col_weights.T
    current = np.asarray(coarse, dtype=np.float64)
    for axis, length in enumerate(fine_shape):
        weights = _interp_matrix(
            np.arange(length, dtype=np.float64),
            np.arange(current.shape[axis], dtype=np.float64) * 2.0,
        )
        current = np.moveaxis(
            np.tensordot(weights, current, axes=(1, axis)), 0, axis
        )
    return current


def _interp_matrix(fine_positions: np.ndarray, coarse_positions: np.ndarray) -> np.ndarray:
    """Sparse-in-spirit linear interpolation matrix (dense ndarray).

    Row ``i`` holds the convex weights that combine coarse samples into the
    fine sample at ``fine_positions[i]``; each row has at most two non-zero
    entries and sums to 1, which is what gives prolongation its
    non-amplifying (max-principle) property.
    """

    n_fine = fine_positions.size
    n_coarse = coarse_positions.size
    weights = np.zeros((n_fine, n_coarse), dtype=np.float64)
    if n_coarse == 1:
        weights[:, 0] = 1.0
        return weights
    clipped = np.clip(fine_positions, coarse_positions[0], coarse_positions[-1])
    right = np.searchsorted(coarse_positions, clipped, side="left")
    right = np.clip(right, 1, n_coarse - 1)
    left = right - 1
    span = coarse_positions[right] - coarse_positions[left]
    frac = (clipped - coarse_positions[left]) / span
    rows = np.arange(n_fine)
    weights[rows, left] = 1.0 - frac
    weights[rows, right] = frac
    return weights


def detail_mask(shape: Tuple[int, ...]) -> np.ndarray:
    """Boolean mask of fine-grid positions *not* on the coarse grid."""

    mask = np.ones(tuple(shape), dtype=bool)
    mask[_even_slices(len(shape))] = False
    return mask


@dataclass
class MultigridDecomposition:
    """Result of :func:`decompose`.

    Attributes
    ----------
    coarse:
        The coarsest-level array.
    details:
        List of detail-coefficient vectors, finest level first; entry ``l``
        holds the values at fine positions missing from level ``l+1``'s
        grid (flattened in row-major order of the masked positions).
    shapes:
        Grid shape per level, finest first (``shapes[0]`` is the original).
    """

    coarse: np.ndarray
    details: List[np.ndarray]
    shapes: List[Tuple[int, ...]]

    @property
    def n_levels(self) -> int:
        return len(self.details)


def decompose(field: np.ndarray, levels: int) -> MultigridDecomposition:
    """Multilevel decomposition of ``field`` with ``levels`` coarsening steps."""

    field = ensure_ndim(field, SUPPORTED_NDIMS, "field").astype(np.float64)
    if levels < 0:
        raise ValueError("levels must be >= 0")
    available = max_levels(field.shape)
    levels = min(levels, available)
    shapes: List[Tuple[int, ...]] = [field.shape]
    details: List[np.ndarray] = []
    current = field
    for _ in range(levels):
        coarse = restrict(current)
        predicted = prolong(coarse, current.shape)
        residual = current - predicted
        mask = detail_mask(current.shape)
        details.append(residual[mask])
        shapes.append(coarse.shape)
        current = coarse
    return MultigridDecomposition(coarse=current, details=details, shapes=shapes)
