"""Shared low-level utilities.

This subpackage contains small, dependency-free helpers used across the
library:

* :mod:`repro.utils.blocking` -- padded views of tiled blocks of N-d
  arrays (used by the block-based compressors and the windowed
  correlation statistics).
* :mod:`repro.utils.parallel` -- a thin process/thread pool wrapper for
  embarrassingly parallel sweeps over (field, compressor, bound)
  combinations.
* :mod:`repro.utils.rng` -- seeded random-generator helpers so every
  experiment in the repository is reproducible.
* :mod:`repro.utils.validation` -- argument checking helpers with
  consistent error messages.
"""

from repro.utils.blocking import (
    block_view,
    pad_to_multiple,
    reassemble_blocks,
    window_starts,
)
from repro.utils.parallel import ParallelConfig, parallel_map
from repro.utils.rng import derive_seeds, make_rng
from repro.utils.validation import (
    ensure_2d,
    ensure_positive,
    ensure_float_array,
    ensure_in,
)

__all__ = [
    "block_view",
    "pad_to_multiple",
    "reassemble_blocks",
    "window_starts",
    "ParallelConfig",
    "parallel_map",
    "derive_seeds",
    "make_rng",
    "ensure_2d",
    "ensure_positive",
    "ensure_float_array",
    "ensure_in",
]
