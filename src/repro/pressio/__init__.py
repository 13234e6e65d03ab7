"""The experiment sweep's compress + measure path.

The original study drives SZ, ZFP and MGARD through libpressio, which
gives every compressor the same configure / compress / measure workflow.
This subpackage plays that role for the from-scratch codecs in
:mod:`repro.compressors`, which every caller constructs with
:func:`repro.compressors.registry.make_compressor`:

* :mod:`repro.pressio.api` -- :func:`compress_and_measure` (one call:
  resolve the bound, compress, measure) and :func:`absolute_bound`, the
  one ``"rel"`` -> absolute bound rule.
* :mod:`repro.pressio.metrics` -- reconstruction-quality and size metrics
  (compression ratio, PSNR, RMSE, maximum absolute error, ...).
"""

from repro.pressio.api import absolute_bound, compress_and_measure
from repro.pressio.metrics import CompressionMetrics, evaluate_metrics

__all__ = [
    "absolute_bound",
    "compress_and_measure",
    "CompressionMetrics",
    "evaluate_metrics",
]
