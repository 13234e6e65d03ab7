"""Block and window utilities for N-dimensional arrays.

The compressors in :mod:`repro.compressors` operate on fixed-size blocks
(16x16 for the SZ-like compressor on planes, 4x4x4 for the ZFP-like
compressor on volumes) and the local correlation statistics in
:mod:`repro.stats.local` operate on tiled windows (32x32 by default).
This module centralises the padding, viewing and reassembly logic so that
every consumer treats edges identically.

All functions are dimension-general and vectorised: :func:`block_view`
returns a strided view of shape ``(*n_blocks, *block)`` — e.g.
``(nbi, nbj, bs, bs)`` for a 2D field or ``(nbi, nbj, nbk, bs, bs, bs)``
for a 3D volume — without copying when the array dimensions are exact
multiples of the block size.
"""

from __future__ import annotations

from itertools import product
from typing import List, Tuple

import numpy as np

from repro.utils.validation import ensure_ndim, ensure_positive

__all__ = [
    "pad_to_multiple",
    "block_view",
    "reassemble_blocks",
    "window_starts",
    "grid_offsets",
]

#: Dimensionalities the blocked compressors support.
SUPPORTED_NDIMS = (2, 3)


def pad_to_multiple(
    field: np.ndarray, block_size: int, mode: str = "edge"
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Pad an N-d array so every dimension is a multiple of ``block_size``.

    Parameters
    ----------
    field:
        2D or 3D input array.
    block_size:
        Target multiple for every dimension.
    mode:
        Padding mode forwarded to :func:`numpy.pad`.  ``"edge"`` replicates
        the border values, which keeps padded blocks statistically similar
        to their neighbourhood and avoids introducing artificial
        discontinuities that would hurt the block predictors.

    Returns
    -------
    padded, original_shape:
        The padded array and the original shape, needed by
        :func:`reassemble_blocks` to crop the reconstruction.
    """

    field = ensure_ndim(field, SUPPORTED_NDIMS, "field")
    ensure_positive(block_size, "block_size")
    original_shape = field.shape
    pads = tuple((0, (-s) % block_size) for s in original_shape)
    if all(p[1] == 0 for p in pads):
        return field, original_shape
    padded = np.pad(field, pads, mode=mode)
    return padded, original_shape


def block_view(field: np.ndarray, block_size: int) -> np.ndarray:
    """Return a ``(*n_blocks, *block)`` view of an N-d array tiled into blocks.

    The array dimensions must be exact multiples of ``block_size``; call
    :func:`pad_to_multiple` first otherwise.  The result is a view (no copy)
    so writing to it mutates ``field``.
    """

    field = ensure_ndim(field, SUPPORTED_NDIMS, "field")
    ensure_positive(block_size, "block_size")
    for length in field.shape:
        if length % block_size:
            raise ValueError(
                f"field shape {field.shape} is not a multiple of block_size={block_size}; "
                "use pad_to_multiple() first"
            )
    counts = tuple(length // block_size for length in field.shape)
    shape = counts + (block_size,) * field.ndim
    strides = tuple(s * block_size for s in field.strides) + field.strides
    return np.lib.stride_tricks.as_strided(field, shape=shape, strides=strides)


def reassemble_blocks(
    blocks: np.ndarray, original_shape: Tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`block_view` followed by a crop to ``original_shape``.

    ``blocks`` must have shape ``(*n_blocks, *block)`` with equal block
    edges (``(nbi, nbj, bs, bs)`` in 2D, ``(nbi, nbj, nbk, bs, bs, bs)``
    in 3D).
    """

    ndim = blocks.ndim // 2
    if blocks.ndim != 2 * ndim or ndim not in SUPPORTED_NDIMS:
        raise ValueError(f"expected 4D or 6D block array, got shape {blocks.shape}")
    counts = blocks.shape[:ndim]
    edges = blocks.shape[ndim:]
    if len(set(edges)) != 1:
        raise ValueError("blocks must be square")
    bs = edges[0]
    # Interleave (n_0, b_0, n_1, b_1, ...) then collapse each pair.
    order = tuple(i for pair in zip(range(ndim), range(ndim, 2 * ndim)) for i in pair)
    full = blocks.transpose(order).reshape(tuple(n * bs for n in counts))
    crop = tuple(slice(0, s) for s in original_shape)
    return np.ascontiguousarray(full[crop])


def grid_offsets(
    shape: Tuple[int, ...], chunk_shape: Tuple[int, ...]
) -> List[Tuple[int, ...]]:
    """C-scan-order start offsets of the chunks covering an N-d ``shape``.

    The grid is anchored at the origin with one chunk every ``chunk_shape``
    steps per axis; trailing chunks may extend past ``shape`` (callers clip
    to the array bounds).  This is the shared tiling used by the volume
    pipeline's tile plans and the chunked array store (:mod:`repro.store`).
    """

    if len(shape) != len(chunk_shape):
        raise ValueError(
            f"shape {tuple(shape)} and chunk_shape {tuple(chunk_shape)} "
            "must have the same length"
        )
    axes = []
    for length, edge in zip(shape, chunk_shape):
        ensure_positive(int(edge), "chunk edge")
        axes.append(range(0, int(length), int(edge)))
    return list(product(*axes))


def window_starts(length: int, window: int, *, include_partial: bool = False) -> List[int]:
    """Start indices of non-overlapping windows of size ``window``.

    Parameters
    ----------
    length:
        Length of the dimension being tiled.
    window:
        Window size.
    include_partial:
        When ``False`` (default) a trailing window that would extend past
        ``length`` is dropped, matching the paper's tiled-window convention
        where only complete 32x32 windows contribute to the local
        statistics.
    """

    ensure_positive(window, "window")
    if length < 0:
        raise ValueError("length must be non-negative")
    starts = list(range(0, length - window + 1, window))
    if include_partial and (not starts or starts[-1] + window < length):
        last = starts[-1] + window if starts else 0
        if last < length:
            starts.append(last)
    return starts
