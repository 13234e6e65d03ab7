"""The inverse of the MGARD-like multigrid decomposition.

The codec rebuilds a field from *quantized* coefficients level by level
inside ``repro.compressors.mgard``; this exact inverse of
:func:`~repro.compressors.multigrid.decompose` lets the tests check that
the decomposition itself loses nothing.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.multigrid import MultigridDecomposition, detail_mask, prolong


def reconstruct(decomposition: MultigridDecomposition) -> np.ndarray:
    """Invert ``decompose`` exactly (up to floating point round-off)."""

    current = np.asarray(decomposition.coarse, dtype=np.float64)
    for level in range(len(decomposition.details) - 1, -1, -1):
        fine_shape = decomposition.shapes[level]
        fine = prolong(current, fine_shape).copy()
        fine[detail_mask(fine_shape)] += decomposition.details[level]
        # Injection points are exact copies of the coarse values.
        fine[(slice(None, None, 2),) * len(fine_shape)] = current
        current = fine
    return current
