"""Haar wavelet decomposition and wavelet-based multiscale statistics.

The paper's Section II-C lists wavelet decompositions (alongside the SVD)
as the standard tool for identifying multiscale components of scientific
datasets, and leaves their detailed use to future work.  This module
implements that direction:

* a separable 2D Haar wavelet transform (orthonormal, with odd edges
  handled by symmetric padding),
* per-level detail-energy fractions — the wavelet energy spectrum of a
  field, a direct multiscale summary of its correlation structure, and
* :func:`wavelet_energy_statistics`, whose *slope* over levels plays the
  same role as the variogram range (long-range-correlated fields
  concentrate energy in coarse levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.validation import ensure_2d, ensure_float_array, ensure_positive

__all__ = [
    "haar_transform_2d",
    "wavelet_decompose",
    "wavelet_energy_statistics",
    "WaveletEnergySummary",
]

_SQRT2 = float(np.sqrt(2.0))


def _pad_to_even(field: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
    rows, cols = field.shape
    pad_r = rows % 2
    pad_c = cols % 2
    if pad_r or pad_c:
        field = np.pad(field, ((0, pad_r), (0, pad_c)), mode="symmetric")
    return field, (rows, cols)


def haar_transform_2d(field: np.ndarray) -> Dict[str, np.ndarray]:
    """One level of the separable orthonormal 2D Haar transform.

    Returns the four sub-bands ``{"LL", "LH", "HL", "HH"}`` each of half
    the (even-padded) resolution.  The transform is orthonormal, so the sum
    of squared coefficients equals the sum of squared (padded) samples.
    """

    field = ensure_float_array(ensure_2d(field, "field"))
    padded, _ = _pad_to_even(field)
    # Rows: average / difference pairs.
    even_rows = padded[0::2, :]
    odd_rows = padded[1::2, :]
    low_rows = (even_rows + odd_rows) / _SQRT2
    high_rows = (even_rows - odd_rows) / _SQRT2
    # Columns.
    def split_cols(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        even = matrix[:, 0::2]
        odd = matrix[:, 1::2]
        return (even + odd) / _SQRT2, (even - odd) / _SQRT2

    ll, lh = split_cols(low_rows)
    hl, hh = split_cols(high_rows)
    return {"LL": ll, "LH": lh, "HL": hl, "HH": hh}


def wavelet_decompose(field: np.ndarray, levels: int) -> List[Dict[str, np.ndarray]]:
    """Multi-level Haar decomposition.

    Returns a list of per-level band dictionaries, finest level first; the
    ``LL`` band of the last entry is the residual approximation.
    """

    field = ensure_float_array(ensure_2d(field, "field"))
    ensure_positive(levels, "levels")
    out: List[Dict[str, np.ndarray]] = []
    current = field
    for _ in range(int(levels)):
        if min(current.shape) < 2:
            break
        bands = haar_transform_2d(current)
        out.append(bands)
        current = bands["LL"]
    return out


@dataclass(frozen=True)
class WaveletEnergySummary:
    """Per-level wavelet detail energy fractions and derived summaries.

    Attributes
    ----------
    level_energy_fraction:
        Fraction of the total detail energy held by each level (finest
        first).
    approximation_fraction:
        Fraction of the *total* energy (details + approximation) retained
        by the final approximation band.
    spectral_slope:
        Slope of ``log(detail energy)`` against level index; positive
        values mean energy grows toward coarse scales, the signature of
        long-range correlation.
    """

    level_energy_fraction: np.ndarray
    approximation_fraction: float
    spectral_slope: float


def wavelet_energy_statistics(field: np.ndarray, levels: int = 4) -> WaveletEnergySummary:
    """Multiscale energy summary of a field via the Haar wavelet transform."""

    decomposition = wavelet_decompose(field, levels)
    if not decomposition:
        raise ValueError("field too small for a wavelet decomposition")
    detail_energy = np.array(
        [
            float((bands["LH"] ** 2).sum() + (bands["HL"] ** 2).sum() + (bands["HH"] ** 2).sum())
            for bands in decomposition
        ]
    )
    approx_energy = float((decomposition[-1]["LL"] ** 2).sum())
    total_detail = float(detail_energy.sum())
    total = total_detail + approx_energy
    fractions = detail_energy / total_detail if total_detail > 0 else np.zeros_like(detail_energy)

    if detail_energy.size >= 2 and np.all(detail_energy > 0):
        slope = float(
            np.polyfit(np.arange(detail_energy.size), np.log(detail_energy), 1)[0]
        )
    else:
        slope = 0.0
    return WaveletEnergySummary(
        level_energy_fraction=fractions,
        approximation_fraction=approx_energy / total if total > 0 else 1.0,
        spectral_slope=slope,
    )
