"""Reconstruction-quality and size metrics.

The paper's headline statistic is the compression ratio; its future-work
section also calls out PSNR and other quality metrics of the reconstructed
data.  :func:`evaluate_metrics` computes the standard set libpressio
reports so downstream analyses (and the CR-prediction extension in
:mod:`repro.core.predictor`) can use any of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from repro.compressors.base import CompressedField
from repro.utils.validation import ensure_float_array

__all__ = ["CompressionMetrics", "error_statistics", "evaluate_metrics", "psnr"]


@dataclass(frozen=True)
class CompressionMetrics:
    """Size and quality metrics of one compression run.

    Attributes
    ----------
    compression_ratio:
        Uncompressed bytes / compressed bytes.
    bit_rate:
        Compressed bits per value.
    max_abs_error:
        Point-wise maximum absolute reconstruction error.
    rmse:
        Root-mean-square error.
    psnr:
        Peak signal-to-noise ratio in dB (peak = value range of the
        original field); ``inf`` for an exact reconstruction.
    value_range:
        Max - min of the original field (the PSNR peak).
    error_bound:
        The absolute bound the compressor was configured with.
    bound_satisfied:
        Whether ``max_abs_error <= error_bound`` (with a tiny relative
        slack for floating point).
    """

    compression_ratio: float
    bit_rate: float
    max_abs_error: float
    rmse: float
    psnr: float
    value_range: float
    error_bound: float
    bound_satisfied: bool

    def as_dict(self) -> Dict[str, float]:
        """Metrics as a plain dictionary (for tabulation / CSV export)."""

        return asdict(self)


def psnr(value_range: float, rmse: float) -> float:
    """PSNR in dB with ``value_range`` as the peak.

    An exact reconstruction is ``inf``; any error on a constant field
    (zero range) is ``-inf``.
    """

    if rmse == 0.0:
        return float("inf")
    if value_range == 0.0:
        return float("-inf")
    return float(20.0 * np.log10(value_range) - 20.0 * np.log10(rmse))


def error_statistics(original: np.ndarray, reconstruction: np.ndarray):
    """Shared reconstruction-error statistics (any dimensionality).

    Returns ``(max_abs_error, rmse, value_range, psnr)``; the single
    definition serves both the 2D metrics here and the tiled volume
    metrics in :mod:`repro.volumes.pipeline`.
    """

    error = reconstruction - original
    max_abs_error = float(np.abs(error).max()) if error.size else 0.0
    rmse = float(np.sqrt(np.mean(error**2))) if error.size else 0.0
    value_range = float(original.max() - original.min()) if original.size else 0.0
    return max_abs_error, rmse, value_range, psnr(value_range, rmse)


def evaluate_metrics(
    original: np.ndarray,
    compressed: CompressedField,
    reconstruction: Optional[np.ndarray] = None,
) -> CompressionMetrics:
    """Compute :class:`CompressionMetrics` for one compression run.

    ``reconstruction`` defaults to the one the compressor produced as a
    by-product (``compressed.reconstruction``); passing an explicit array
    (e.g. the output of ``decompress``) lets tests verify the two agree.
    """

    original = ensure_float_array(original, "original")
    if reconstruction is None:
        reconstruction = compressed.reconstruction
    if reconstruction is None:
        raise ValueError(
            "no reconstruction available: pass one explicitly or use a "
            "compressor that returns it from compress()"
        )
    reconstruction = ensure_float_array(reconstruction, "reconstruction")
    if reconstruction.shape != original.shape:
        raise ValueError(
            f"reconstruction shape {reconstruction.shape} != original shape {original.shape}"
        )

    max_abs_error, rmse, value_range, psnr = error_statistics(
        original, reconstruction
    )

    n_values = int(np.prod(compressed.original_shape))
    bit_rate = 8.0 * compressed.compressed_nbytes / n_values if n_values else 0.0
    bound_satisfied = max_abs_error <= compressed.error_bound * (1.0 + 1e-9)

    return CompressionMetrics(
        compression_ratio=compressed.compression_ratio,
        bit_rate=bit_rate,
        max_abs_error=max_abs_error,
        rmse=rmse,
        psnr=psnr,
        value_range=value_range,
        error_bound=compressed.error_bound,
        bound_satisfied=bound_satisfied,
    )
