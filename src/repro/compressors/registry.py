"""String-keyed compressor registry.

The experiment pipeline, the volume pipeline, the store and the
benchmarks refer to compressors by the names the paper uses ("sz",
"zfp", "mgard"); every caller constructs one with :func:`make_compressor`
and calls its ``compress`` / ``decompress`` / ``decompress_with_context``.
"""

from __future__ import annotations

from typing import List

from repro.compressors.base import Compressor
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor

__all__ = ["make_compressor", "available_compressors"]

_REGISTRY = {
    "sz": SZCompressor,
    "zfp": ZFPCompressor,
    "mgard": MGARDCompressor,
}


def available_compressors() -> List[str]:
    """Sorted list of registered compressor names."""

    return sorted(_REGISTRY)


def make_compressor(name: str, error_bound: float) -> Compressor:
    """Instantiate a registered compressor with the given error bound.

    Codecs are built with their default settings; a study of another
    setting builds the codec class itself.  Decoding needs no settings:
    every container records its own.
    """

    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown compressor {name!r}; available: {available_compressors()}"
        ) from exc
    return factory(error_bound=error_bound)
