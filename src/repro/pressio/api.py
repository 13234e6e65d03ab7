"""The one-call compress + measure path and the error-bound rule.

The original study drives SZ, ZFP and MGARD through libpressio under an
absolute error bound.  :func:`compress_and_measure` is the equivalent
one-call path for the experiment sweep: it resolves the bound, calls the
registry codec directly and evaluates the standard metric set.
:func:`absolute_bound` is the single rule turning a ``"rel"`` bound into
an absolute one; the CLI's volume paths use it too.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.compressors.base import CompressedField
from repro.compressors.registry import make_compressor
from repro.pressio.metrics import CompressionMetrics, evaluate_metrics
from repro.utils.validation import ensure_in, ensure_ndim, ensure_positive

__all__ = ["ERROR_BOUND_MODES", "absolute_bound", "compress_and_measure"]

#: Error-bound modes.  The paper uses ``"abs"``; ``"rel"`` (value-range
#: relative) is provided because the paper notes the formal equivalence
#: between the two and SZ exposes both.
ERROR_BOUND_MODES = ("abs", "rel")


def absolute_bound(error_bound: float, mode: str, blocks: Iterable[np.ndarray]) -> float:
    """The absolute bound ``error_bound`` means under ``mode``.

    ``"abs"`` returns the bound as given and never reads ``blocks``.
    ``"rel"`` scales it by the value range (max - min) over all of
    ``blocks`` together, so a streamed volume can pass a generator of
    slabs.  A constant field has no range; any positive bound is
    achievable there, so it gets the raw bound.
    """

    ensure_positive(error_bound, "error_bound")
    ensure_in(mode, ERROR_BOUND_MODES, "mode")
    if mode == "abs":
        return float(error_bound)
    lows, highs = zip(*((float(np.min(b)), float(np.max(b))) for b in blocks))
    value_range = float(np.max(highs)) - float(np.min(lows))
    if value_range <= 0:
        return float(error_bound)
    return float(error_bound) * value_range


def compress_and_measure(
    field: np.ndarray,
    compressor_id: str,
    error_bound: float,
    *,
    mode: str = "abs",
) -> Tuple[CompressedField, CompressionMetrics]:
    """Compress a 2D or 3D ``field`` with a registry codec and measure it.

    Raises ``KeyError`` for an unknown codec and ``ValueError`` for a bad
    bound, a bad mode or 1-D input.

    >>> import numpy as np
    >>> field = np.random.default_rng(0).normal(size=(64, 64))
    >>> compressed, metrics = compress_and_measure(field, "sz", 1e-3)
    >>> metrics.bound_satisfied
    True
    """

    bound = absolute_bound(error_bound, mode, [field])
    codec = make_compressor(compressor_id, bound)
    field = ensure_ndim(field, (2, 3), "field")
    compressed = codec.compress(field)
    return compressed, evaluate_metrics(field, compressed)
