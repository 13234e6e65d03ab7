"""MGARD-like multilevel error-bounded compressor.

Mirrors the structure the paper attributes to MGARD: the field is
decomposed into **multilevel coefficients** on a dyadic grid hierarchy
(:mod:`repro.compressors.multigrid`, dimension-general: 2D planes and 3D
volumes share one code path), the coefficients are quantized level by
level, and the quantized stream is handed to a lossless backend.  Because
coarse levels summarise the entire field, the compressor "sees" global
structure in a way the block-local SZ and ZFP cannot — which is exactly
why the paper finds MGARD's compression ratio to be less sensitive to the
(local) correlation-range statistics.

The quantized level streams are entropy coded with the same
**bit-width-grouped** layout the ZFP-like container uses for sequency
planes (:func:`repro.compressors.transform.group_planes_by_width`): each
level's codes are zigzag-mapped, consecutive levels whose codes share a
bit width form one short-alphabet backend stream, and all-zero groups
cost no stream at all.  Fine-detail levels (near-zero codes for smooth
data) therefore no longer share a Huffman alphabet with the huge coarse
codes — the regrouping both shrinks the stream and removes the wide-
alphabet Huffman build that dominated the old compress path.

Error-budget argument
---------------------
Reconstruction proceeds coarse-to-fine; at every level the prolongation is
a convex (linear-interpolation) combination of the coarser level, so it
does not amplify errors, and adding the dequantized details contributes at
most that level's quantization error.  Splitting the absolute tolerance
``eb`` into per-level budgets that sum to ``eb`` therefore bounds the total
point-wise error by ``eb``.  The split favours finer levels (which carry
most coefficients) geometrically; the compressor verifies the bound on its
own reconstruction before returning.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.compressors.base import (
    CompressedField,
    Compressor,
    CompressorError,
    LosslessBackend,
    entropy_context,
)
from repro.compressors.blocks import quantize_to_grid
from repro.compressors.multigrid import (
    decompose,
    detail_mask,
    max_levels,
    prolong,
)
from repro.compressors.transform import (
    group_planes_by_width,
    zigzag_decode,
    zigzag_encode,
)
from repro.encoding.varint import Reader, Writer
from repro.utils.validation import ensure_float_array, ensure_ndim

__all__ = ["MGARDCompressor"]

_MAGIC = b"MGR2"
_CODE_RADIUS = 1 << 40
#: Container flag values (leading varint after the magic): 0 plain, 1 raw,
#: 2 halo/context-coded (level streams may carry the table-free context
#: tag and need the tile halo's entropy context to decode).
_FLAG_RAW = 1
_FLAG_HALO = 2


class MGARDCompressor(Compressor):
    """MGARD-like multilevel error-bounded compressor (2D + 3D).

    Parameters
    ----------
    error_bound:
        Absolute error bound.
    levels:
        Number of coarsening steps; ``None`` uses as many as the field
        admits (down to a 4x4(x4) coarsest grid).
    backend:
        Lossless backend for the quantized coefficient stream.
    budget_ratio:
        Geometric ratio of the per-level error budgets: level ``l`` (finest
        = 0) receives a budget proportional to ``budget_ratio**l``.  The
        default weights the finest level most heavily, since its detail
        coefficients dominate the stream.
    """

    name = "mgard"

    def __init__(
        self,
        error_bound: float = 1e-3,
        *,
        levels: int | None = None,
        backend: str = "huffman",
        budget_ratio: float = 0.5,
    ) -> None:
        super().__init__(error_bound)
        if levels is not None and levels < 1:
            raise ValueError("levels must be >= 1 (or None for automatic)")
        if not 0 < budget_ratio <= 1:
            raise ValueError("budget_ratio must be in (0, 1]")
        self.levels = levels
        self.backend = LosslessBackend(backend)
        self.budget_ratio = float(budget_ratio)

    # ------------------------------------------------------------------
    @staticmethod
    def _level_budgets(error_bound: float, budget_ratio: float, n_levels: int) -> np.ndarray:
        """Per-level absolute error budgets (finest first, last entry = coarse grid)."""

        weights = budget_ratio ** np.arange(n_levels + 1, dtype=np.float64)
        weights /= weights.sum()
        return error_bound * weights

    # ------------------------------------------------------------------
    def compress(
        self,
        field: np.ndarray,
        *,
        halo=None,
        collect_context: bool = False,
    ) -> CompressedField:
        """Compress a field; ``halo.context`` enables table-free streams.

        The multigrid hierarchy has no per-block prediction restart to fix
        (its dyadic grids align across power-of-two tile offsets), so like
        ZFP the halo contributes through its entropy context only: the
        level-group streams are coded against the reference neighbour's
        symbol statistics instead of bootstrapping tables per tile.
        """

        original = ensure_ndim(field, (2, 3), "field")
        original_dtype = np.asarray(field).dtype
        values = ensure_float_array(original, "field")
        if not np.all(np.isfinite(values)):
            raise CompressorError("mgard: field contains non-finite values")
        halo_context = halo.context if halo is not None and halo.context else None

        available = max_levels(values.shape)
        n_levels = available if self.levels is None else min(self.levels, available)
        if n_levels == 0:
            # Field too small for a hierarchy: store verbatim.
            return self._raw_fallback(_header(_FLAG_RAW, values.ndim), values, original_dtype)

        decomposition = decompose(values, n_levels)
        budgets = self._level_budgets(
            self.error_bound, self.budget_ratio, decomposition.n_levels
        )

        # Per-level grid quantization via the shared block-codec engine; any
        # level overflowing the integer grid routes the field to raw storage.
        detail_codes: List[np.ndarray] = []
        for level, detail in enumerate(decomposition.details):
            codes = quantize_to_grid(detail, 2.0 * budgets[level], max_code=_CODE_RADIUS)
            if codes is None:
                return self._raw_fallback(_header(_FLAG_RAW, values.ndim), values, original_dtype)
            detail_codes.append(codes)
        coarse_codes = quantize_to_grid(
            decomposition.coarse, 2.0 * budgets[-1], max_code=_CODE_RADIUS
        )
        if coarse_codes is None:
            return self._raw_fallback(_header(_FLAG_RAW, values.ndim), values, original_dtype)

        reconstruction = self._reconstruct(
            coarse_codes, detail_codes, decomposition.shapes, budgets
        )
        max_error = float(np.abs(reconstruction - values).max())
        if max_error > self.error_bound:
            # The additive budget argument makes this unreachable, but a raw
            # fallback keeps the bound a hard guarantee even in pathological
            # floating-point corner cases.
            return self._raw_fallback(_header(_FLAG_RAW, values.ndim), values, original_dtype)

        # ------------------------------------------------------------------
        payload = _header(_FLAG_HALO if halo_context is not None else 0, values.ndim)
        payload.varints(values.shape)
        payload.f64(self.error_bound)
        payload.f64(self.budget_ratio)
        payload.varint(decomposition.n_levels)

        # Level-major parts: coarse grid first, then details from coarsest
        # to finest — the coarse part is tiny and the fine details (mostly
        # near zero for smooth data) dominate.  Each part's codes are
        # zigzag-mapped; consecutive parts of equal bit width form one
        # backend stream with a short alphabet (the multilevel analogue of
        # ZFP's sequency-plane grouping).
        parts = [zigzag_encode(coarse_codes.ravel())]
        for detail in reversed(detail_codes):
            parts.append(zigzag_encode(detail.ravel()))
        widths = np.array(
            [
                int(part.max()).bit_length() if part.size and part.max() > 0 else 0
                for part in parts
            ],
            dtype=np.int64,
        )
        groups = group_planes_by_width(widths)
        payload.varint(len(groups))
        context_streams = []
        for start, end, width in groups:
            payload.varints((end - start, width))
            if width > 0:
                stream = np.concatenate(parts[start:end])
                context_streams.append(stream)
                payload.blob(self.backend.encode_symbols(stream, context=halo_context))

        return CompressedField(
            data=bytes(payload),
            original_shape=values.shape,
            original_dtype=original_dtype,
            compressor=self.name,
            error_bound=self.error_bound,
            reconstruction=reconstruction,
            extras={
                "n_levels": float(decomposition.n_levels),
                "max_error": self._require_bound(max_error),
                "level_stream_groups": float(len(groups)),
                "halo_coded": float(halo_context is not None),
            },
            entropy_context=entropy_context(context_streams, collect_context),
        )

    # ------------------------------------------------------------------
    def _reconstruct(
        self,
        coarse_codes: np.ndarray,
        detail_codes: List[np.ndarray],
        shapes: List[Tuple[int, ...]],
        budgets: np.ndarray,
    ) -> np.ndarray:
        current = coarse_codes.astype(np.float64) * (2.0 * budgets[-1])
        for level in range(len(detail_codes) - 1, -1, -1):
            fine_shape = shapes[level]
            predicted = prolong(current, fine_shape)
            mask = detail_mask(fine_shape)
            fine = predicted.copy()
            fine[mask] += detail_codes[level].astype(np.float64) * (2.0 * budgets[level])
            fine[(slice(None, None, 2),) * len(fine_shape)] = current
            current = fine
        return current

    # ------------------------------------------------------------------
    def decompress(self, compressed: CompressedField, *, halo=None) -> np.ndarray:
        return self._decode(compressed, halo, want_context=False)[0]

    def decompress_with_context(self, compressed: CompressedField, halo=None):
        return self._decode(compressed, halo, want_context=True)

    def _decode(self, compressed: CompressedField, halo, want_context: bool = False):
        reader = Reader(compressed.data)
        if reader.take(4) != _MAGIC:
            raise CompressorError("not an MGARD-like container")
        flag = reader.varint()
        halo_context = None
        if flag == _FLAG_HALO:
            halo_context = self._require_halo(halo).context
        elif flag not in (0, _FLAG_RAW):
            raise CompressorError(f"mgard: unknown container flag {flag}")
        ndim = reader.varint()
        if ndim not in (2, 3):
            raise CompressorError(f"mgard: unsupported dimensionality {ndim}")
        original_shape = tuple(reader.varint() for _ in range(ndim))
        if flag == _FLAG_RAW:
            return self._read_raw(reader, original_shape), None

        error_bound = reader.f64()
        budget_ratio = reader.f64()
        n_levels = reader.varint()
        available = max_levels(original_shape)
        if n_levels > available:
            raise CompressorError(
                f"mgard: container declares {n_levels} levels but a "
                f"{original_shape} field admits at most {available}"
            )

        # Rebuild the level shapes from the stored field shape.
        shapes: List[Tuple[int, ...]] = [original_shape]
        for _ in range(n_levels):
            shapes.append(tuple((d + 1) // 2 for d in shapes[-1]))

        # Part sizes in stream order: coarse grid, then details from
        # coarsest to finest.
        part_sizes = [int(np.prod(shapes[-1]))]
        for level in range(n_levels - 1, -1, -1):
            part_sizes.append(int(detail_mask(shapes[level]).sum()))

        n_parts = n_levels + 1
        n_groups = reader.varint()
        parts: List[np.ndarray] = []
        context_streams: List[np.ndarray] = []
        for _ in range(n_groups):
            group_parts = reader.varint()
            width = reader.varint()
            if len(parts) + group_parts > n_parts:
                raise CompressorError("mgard: level groups exceed the level count")
            sizes = part_sizes[len(parts) : len(parts) + group_parts]
            if width == 0:
                parts.extend(np.zeros(size, dtype=np.int64) for size in sizes)
                continue
            stream = self.backend.decode_symbols(
                reader.blob(), context=halo_context, max_count=sum(part_sizes)
            )
            context_streams.append(stream)
            if stream.size != sum(sizes):
                raise CompressorError("mgard: level group length mismatch")
            offsets = np.cumsum([0] + sizes)
            parts.extend(
                zigzag_decode(stream[offsets[k] : offsets[k + 1]])
                for k in range(group_parts)
            )
        if len(parts) != n_parts:
            raise CompressorError("mgard: level groups do not cover all levels")

        budgets = self._level_budgets(error_bound, budget_ratio, n_levels)
        coarse_codes = parts[0].reshape(shapes[-1])
        detail_codes: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * n_levels
        for k, level in enumerate(range(n_levels - 1, -1, -1)):
            detail_codes[level] = parts[1 + k]
        values = self._reconstruct(coarse_codes, detail_codes, shapes, budgets)
        return values, entropy_context(context_streams, want_context)


def _header(flag: int, ndim: int) -> Writer:
    """Magic, flag (0 plain / 1 raw / 2 halo) and dimensionality."""

    header = Writer(_MAGIC)
    header.varints((flag, ndim))
    return header
