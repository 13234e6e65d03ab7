"""Block-sampling compression-ratio estimation (Lu et al. style).

Lu et al. (IPDPS 2018) estimate the compression ratio of SZ and ZFP by
compressing a small sample of data blocks and extrapolating, relying on
compressor-specific details.  This module implements the generic form of
that idea against our compressors: draw ``n_blocks`` random ``block_size``
tiles from the field (square tiles on 2D fields, cubes on 3D volumes),
compress each with the target compressor, and estimate the full-field CR
from the sampled compressed sizes.

Every sampled tile pays the compressor's per-tile container overhead
(magic, shape header, entropy-coder symbol tables) that the full field
pays only once, and that overhead differs *per compressor* — SZ's Huffman
tables cost far more per tile than ZFP's plane groups — which made the
raw estimator systematically under-estimate SZ relative to ZFP.
``overhead_correction`` (default on) removes that bias with a two-scale
extrapolation: the per-byte compressed rate is sampled at ``block_size``
and ``2 * block_size`` tiles, and since the per-tile overhead amortises
with tile area (volume in 3D) — ``rate(s) = r_inf + c / s^d`` — the
infinite-tile rate follows by Richardson extrapolation with the per-ndim
coefficient, ``r_inf = (2^d * r_2s - r_s) / (2^d - 1)`` (``(4*r2 - r)/3``
for planes, ``(8*r2 - r)/7`` for volumes).  Fields too small for
double-size tiles fall back to subtracting the compressor's fixed header
cost (measured on a constant tile).

On rough fields SZ additionally exploits cross-tile redundancy that only
operates *above* the double-tile scale (repeated quantization patterns
across distant tiles), so the two-scale extrapolation still under-states
SZ there.  When the field admits it, one additional ``4 * block_size``
tile (128^2 with the default block size) is sampled and the Richardson
pair is re-anchored at the two largest scales, closing that bias while
keeping the two-scale overhead correction machinery intact; disable via
``large_tile=False``.  The uncorrected form
(``overhead_correction=False``) is kept for the baseline benchmark that
quantifies the bias the paper attributes to compressor-specific
estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.compressors.registry import make_compressor
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import ensure_ndim, ensure_positive

__all__ = [
    "BlockSamplingEstimate",
    "estimate_cr_by_sampling",
    "measure_fixed_overhead",
]


@dataclass(frozen=True)
class BlockSamplingEstimate:
    """Result of a block-sampling CR estimation."""

    compressor: str
    error_bound: float
    estimated_cr: float
    sampled_fraction: float
    n_blocks: int
    block_size: int
    per_block_crs: Tuple[float, ...]
    #: Fixed per-tile container overhead (bytes) removed from the
    #: extrapolation; 0 when the correction is disabled.
    overhead_bytes_per_block: float = 0.0
    #: Tile edges actually sampled (base scale, plus the double/quad
    #: scales when the overhead correction took them).
    scales: Tuple[int, ...] = ()


def measure_fixed_overhead(compressor, block_size: int, *, ndim: int = 2) -> int:
    """Fixed container overhead of one ``block_size`` tile, in bytes.

    A constant tile carries no information beyond its header: predictors
    reduce it to an all-zero code stream, so its compressed size is the
    per-tile cost the estimator would otherwise multiply by the sample
    count.  ``ndim`` selects a square (2) or cubic (3) probe tile.
    """

    tile = np.zeros((block_size,) * ndim, dtype=np.float64)
    return compressor.compress(tile).compressed_nbytes


def estimate_cr_by_sampling(
    field: np.ndarray,
    compressor: str,
    error_bound: float,
    *,
    n_blocks: int = 16,
    block_size: int | None = None,
    seed: SeedLike = None,
    overhead_correction: bool = True,
    large_tile: bool = True,
) -> BlockSamplingEstimate:
    """Estimate the compression ratio of ``field`` from sampled blocks.

    ``field`` may be a 2D plane or a 3D volume; tiles are squares or cubes
    of edge ``block_size`` (default 32 in 2D, 16 in 3D).  The estimator
    compresses ``n_blocks`` randomly positioned tiles and uses the ratio
    of total original bytes to total compressed bytes of the sample as the
    estimate (the aggregate form is less noisy than averaging per-block
    CRs).  With ``overhead_correction`` (default) the compressor's fixed
    per-tile container overhead is subtracted via the two-scale Richardson
    extrapolation, and — when ``large_tile`` is on and the field admits a
    ``4 * block_size`` tile — one quad-scale tile re-anchors the
    extrapolation at the two largest scales (the rough-field SZ
    cross-tile-redundancy fix).
    """

    field = ensure_ndim(field, (2, 3), "field")
    if block_size is None:
        block_size = 32 if field.ndim == 2 else 16
    ensure_positive(error_bound, "error_bound")
    ensure_positive(n_blocks, "n_blocks")
    ensure_positive(block_size, "block_size")
    if min(field.shape) < block_size:
        raise ValueError(
            f"field shape {field.shape} is smaller than the sampling block size {block_size}"
        )

    rng = make_rng(seed)
    codec = make_compressor(compressor, error_bound)

    def sample(count: int, size: int):
        original = 0
        compressed = 0
        ratios: list = []
        for _ in range(count):
            start = [
                int(rng.integers(0, length - size + 1)) for length in field.shape
            ]
            region = tuple(slice(i, i + size) for i in start)
            tile = np.ascontiguousarray(field[region])
            result = codec.compress(tile)
            original += result.original_nbytes
            compressed += result.compressed_nbytes
            ratios.append(result.compression_ratio)
        return original, compressed, ratios

    original_bytes, compressed_bytes, per_block = sample(int(n_blocks), block_size)
    total_sampled_bytes = original_bytes
    scales = [int(block_size)]

    overhead = 0.0
    estimated = (
        original_bytes / compressed_bytes if compressed_bytes else float("inf")
    )
    double = 2 * block_size
    quad = 4 * block_size
    if overhead_correction and compressed_bytes:
        rate = compressed_bytes / original_bytes
        if min(field.shape) >= double:
            # Two-scale Richardson extrapolation of the per-byte rate: the
            # per-tile overhead amortises with tile area (volume in 3D),
            # rate(s) = r_inf + c/s^d, so a second, double-size scale
            # eliminates the overhead term with coefficient 2^d.
            factor = float(2**field.ndim)
            n2 = max(2, int(n_blocks) // 2)
            original2, compressed2, _ = sample(n2, double)
            total_sampled_bytes += original2
            scales.append(double)
            rate2 = compressed2 / original2 if original2 else rate
            # Clamp: sampling noise can push the extrapolation through
            # zero for trivially compressible data.
            rate_inf = max(
                (factor * rate2 - rate) / (factor - 1.0), 0.25 * rate2
            )
            if large_tile and min(field.shape) >= quad:
                # One quad-scale tile: cross-tile redundancy (rough-field
                # SZ) only shows up above the double-tile scale, so the
                # Richardson pair is re-anchored at (2s, 4s).  A single
                # tile suffices — at this size the sample is a sizeable
                # fraction of the field already.
                original4, compressed4, _ = sample(1, quad)
                total_sampled_bytes += original4
                scales.append(quad)
                rate4 = compressed4 / original4 if original4 else rate2
                rate_inf = max(
                    (factor * rate4 - rate2) / (factor - 1.0), 0.25 * rate4
                )
            estimated = 1.0 / rate_inf
            tile_bytes = block_size**field.ndim * field.dtype.itemsize
            overhead = max((rate - rate_inf) * tile_bytes, 0.0)
        else:
            # Field too small for the second scale: subtract the fixed
            # header cost measured on a constant tile, charged once.
            overhead = float(
                measure_fixed_overhead(codec, int(block_size), ndim=field.ndim)
            )
            field_bytes = field.size * field.dtype.itemsize
            body = max(compressed_bytes - n_blocks * overhead, 0.0)
            projected = body * (field_bytes / original_bytes) + overhead
            estimated = field_bytes / projected if projected > 0 else float("inf")

    # Count every compressed sample (all scales), not just the first pass,
    # so the reported cost of the estimate is honest.
    sampled_fraction = total_sampled_bytes / float(
        field.size * field.dtype.itemsize
    )
    return BlockSamplingEstimate(
        compressor=compressor,
        error_bound=float(error_bound),
        estimated_cr=float(estimated),
        sampled_fraction=float(min(sampled_fraction, 1.0)),
        n_blocks=int(n_blocks),
        block_size=int(block_size),
        per_block_crs=tuple(per_block),
        overhead_bytes_per_block=float(overhead),
        scales=tuple(scales),
    )
