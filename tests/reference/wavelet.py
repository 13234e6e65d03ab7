"""The inverse of one level of the separable 2D Haar transform.

The program only ever analyses (``repro.stats.wavelet``); the tests
check that its forward transform is orthonormal and complete by
inverting it with this.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def inverse_haar_transform_2d(
    bands: Dict[str, np.ndarray], original_shape: Tuple[int, int] | None = None
) -> np.ndarray:
    """Invert :func:`haar_transform_2d`; crops to ``original_shape`` if given."""

    for key in ("LL", "LH", "HL", "HH"):
        if key not in bands:
            raise ValueError(f"missing sub-band {key!r}")
    ll, lh, hl, hh = bands["LL"], bands["LH"], bands["HL"], bands["HH"]
    if not (ll.shape == lh.shape == hl.shape == hh.shape):
        raise ValueError("all sub-bands must have the same shape")
    rows2, cols2 = ll.shape

    def merge_cols(low: np.ndarray, high: np.ndarray) -> np.ndarray:
        out = np.empty((low.shape[0], 2 * cols2), dtype=np.float64)
        out[:, 0::2] = (low + high) / np.sqrt(2.0)
        out[:, 1::2] = (low - high) / np.sqrt(2.0)
        return out

    low_rows = merge_cols(ll, lh)
    high_rows = merge_cols(hl, hh)
    out = np.empty((2 * rows2, low_rows.shape[1]), dtype=np.float64)
    out[0::2, :] = (low_rows + high_rows) / np.sqrt(2.0)
    out[1::2, :] = (low_rows - high_rows) / np.sqrt(2.0)
    if original_shape is not None:
        out = out[: original_shape[0], : original_shape[1]]
    return out
