"""Reference feedback Lorenzo predictor (first-order, 2D).

The Lorenzo predictor estimates a grid value from its already-processed
neighbours::

    pred(i, j) = f(i-1, j) + f(i, j-1) - f(i-1, j-1)

The codecs use the vectorized block-local integer form in
:mod:`repro.compressors.blocks` (:func:`~repro.compressors.blocks.lorenzo_residuals`
/ :func:`~repro.compressors.blocks.lorenzo_reconstruct`), which predicts
pre-quantized codes inside each block and treats out-of-block neighbours
as zero.  :func:`lorenzo_predict_feedback` is the textbook SZ
formulation: the prediction uses previously *reconstructed*
floating-point values and the residual is quantized on the fly.  It is a
scalar Python loop, kept as the reference the unit tests compare the
block engine against on small fields.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compressors.blocks import DEFAULT_CODE_RADIUS
from repro.utils.validation import ensure_2d, ensure_positive

__all__ = ["lorenzo_predict_feedback"]


def lorenzo_predict_feedback(
    field: np.ndarray,
    error_bound: float,
    *,
    code_radius: int = DEFAULT_CODE_RADIUS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference (scalar) SZ-style Lorenzo pass with reconstruction feedback.

    Walks the field in raster order; each value is predicted from the
    *reconstructed* left/top/top-left neighbours, the residual is quantized
    with bin width ``2*error_bound``, and values whose code magnitude
    exceeds ``code_radius`` are marked unpredictable and kept exact.

    Returns ``(codes, unpredictable_mask, reconstruction)``.  Used by the
    test-suite to validate that the vectorised block formulation obeys the
    same error bound and produces comparable code statistics; the SZ
    compressor itself uses the vectorised path.
    """

    field = ensure_2d(field, "field")
    ensure_positive(error_bound, "error_bound")
    values = np.asarray(field, dtype=np.float64)
    rows, cols = values.shape
    step = 2.0 * error_bound

    codes = np.zeros((rows, cols), dtype=np.int64)
    unpredictable = np.zeros((rows, cols), dtype=bool)
    recon = np.zeros((rows, cols), dtype=np.float64)

    for i in range(rows):
        for j in range(cols):
            top = recon[i - 1, j] if i > 0 else 0.0
            left = recon[i, j - 1] if j > 0 else 0.0
            diag = recon[i - 1, j - 1] if i > 0 and j > 0 else 0.0
            pred = top + left - diag
            code = np.rint((values[i, j] - pred) / step)
            candidate = pred + step * code
            if (
                abs(code) > code_radius
                or not np.isfinite(code)
                or abs(candidate - values[i, j]) > error_bound
            ):
                unpredictable[i, j] = True
                recon[i, j] = values[i, j]
            else:
                codes[i, j] = int(code)
                recon[i, j] = candidate
    return codes, unpredictable, recon
