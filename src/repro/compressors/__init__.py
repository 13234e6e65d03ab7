"""Error-bounded lossy compressors.

From-scratch NumPy implementations of the three compressor families the
paper evaluates, mirroring the algorithmic structure described in its
Section II-A:

* :mod:`repro.compressors.sz` -- SZ-like prediction + quantization
  compressor: 16x16 blocks, Lorenzo and hyperplane-regression predictors,
  linear quantization against an absolute error bound, exact storage of
  unpredictable values, Huffman/Zstd-like lossless backend.
* :mod:`repro.compressors.zfp` -- ZFP-like transform compressor: 4x4
  blocks, block-floating-point fixed-point conversion, the ZFP
  near-orthogonal lifting transform, bit-plane truncation steered by the
  error tolerance, entropy coding of the surviving coefficients.
* :mod:`repro.compressors.mgard` -- MGARD-like multilevel compressor:
  dyadic multigrid hierarchy, per-level detail coefficients, per-level
  quantization with an error-budget split, lossless backend.

Shared machinery lives in :mod:`repro.compressors.base` (interfaces and the
compressed-container format), :mod:`repro.compressors.blocks` (prediction,
quantization and the block codec), :mod:`repro.compressors.halo`,
:mod:`repro.compressors.transform` and :mod:`repro.compressors.multigrid`;
:mod:`repro.compressors.tiles` holds the one tile encode/decode worker
pair every tiled path (volumes, store writes and reads) runs;
the scalar feedback Lorenzo pass the tests compare the block engine
against is ``tests/reference/lorenzo.py``.
:func:`repro.compressors.registry.make_compressor` is how every caller
constructs a codec by name.
"""

from repro.compressors.base import (
    CompressedField,
    Compressor,
    CompressorError,
    ErrorBoundExceededError,
    LosslessBackend,
)
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.registry import available_compressors, make_compressor

__all__ = [
    "Compressor",
    "CompressedField",
    "CompressorError",
    "ErrorBoundExceededError",
    "LosslessBackend",
    "SZCompressor",
    "ZFPCompressor",
    "MGARDCompressor",
    "available_compressors",
    "make_compressor",
]
