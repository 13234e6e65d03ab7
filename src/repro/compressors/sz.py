"""SZ-like error-bounded lossy compressor.

Follows the algorithmic pipeline of SZ 2.x as described in the paper's
Section II-A:

1. the field is scanned block by block (16x16 for 2D data, 8x8x8 for 3D
   volumes);
2. every block is predicted with *both* the Lorenzo predictor and the
   hyperplane regression predictor, and the cheaper of the two (in
   estimated coding cost) is selected per block;
3. prediction residuals are linearly quantized against the absolute error
   bound; residual codes outside the quantization radius are stored exactly
   in a side channel ("unpredictable" values);
4. the quantization-code stream is entropy coded (run-length + canonical
   Huffman by default, optionally the LZ77+Huffman Zstd-like backend).

Steps 1-3 are the shared, fully vectorized dimension-general block-codec
engine (:class:`repro.compressors.blocks.BlockCodec`); this module owns
only the container formats: serializing the engine's arrays (modes,
symbols, regression coefficients, exact outliers) into a self-describing
byte blob and back.  The coefficient and outlier side channels use the
array varint codecs, so neither direction loops over elements in Python.

Two container formats exist: the legacy 2D layout (``SZR1``, unchanged
bytes for 2D fields) and the dimension-general volume layout (``SZV1``)
used for 3D inputs, which stores the dimensionality explicitly.  Both
magics share a leading flag varint: ``0`` plain, ``1`` raw fallback, and
``2`` *halo-coded* — the tile was compressed against a
:class:`repro.compressors.halo.TileHalo` (cross-seam Lorenzo prediction
from the neighbour's reconstructed low-face planes, and/or context-coded
backend streams), and ``decompress`` must receive the same halo.  Halo-off
payloads are bit-identical to the pre-halo format.

See the engine's docstring for why predicting in pre-quantized integer-code
space is equivalent to the reference feedback formulation; the scalar
reference is kept in the test suite (``tests/reference/lorenzo.py``), which
checks the two agree on the error-bound invariant and produce similar code
statistics.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compressors.base import (
    CompressedField,
    Compressor,
    CompressorError,
    LosslessBackend,
    entropy_context,
)
from repro.compressors.blocks import (
    DEFAULT_CODE_RADIUS,
    MODE_REGRESSION,
    BlockCodec,
)
from repro.encoding.varint import Reader, Writer, encode_signed_varint_array
from repro.utils.validation import ensure_float_array, ensure_ndim

__all__ = ["SZCompressor"]

_MAGIC = b"SZR1"
_MAGIC_VOLUME = b"SZV1"
#: Container flag values (leading varint after the magic).
_FLAG_RAW = 1
_FLAG_HALO = 2


class SZCompressor(Compressor):
    """SZ-like prediction-based error-bounded compressor (2D + 3D).

    Parameters
    ----------
    error_bound:
        Absolute error bound.
    block_size:
        Edge length of the prediction blocks for 2D fields (16 in SZ).
    block_size_3d:
        Edge length of the cubic prediction blocks for 3D volumes (SZ uses
        small cubes — 6^3 in the reference; 8^3 here keeps the block tensor
        power-of-two friendly).
    predictors:
        Subset of ``{"lorenzo", "regression"}``; the default enables both
        with per-block selection, matching SZ.  Restricting to a single
        predictor is used by the predictor ablation benchmark.
    backend:
        Lossless backend name (``"huffman"``, ``"zstd"`` or ``"raw"``).
    code_radius:
        Maximum |quantization code| before a value is routed to the exact
        side channel (SZ's default corresponds to 2^16 intervals).
    """

    name = "sz"

    def __init__(
        self,
        error_bound: float = 1e-3,
        *,
        block_size: int = 16,
        block_size_3d: int = 8,
        predictors: Tuple[str, ...] = ("lorenzo", "regression"),
        backend: str = "huffman",
        code_radius: int = DEFAULT_CODE_RADIUS,
    ) -> None:
        super().__init__(error_bound)
        self._codec = BlockCodec(
            error_bound,
            block_size=block_size,
            predictors=predictors,
            code_radius=code_radius,
        )
        self._codec_3d = BlockCodec(
            error_bound,
            block_size=block_size_3d,
            predictors=predictors,
            code_radius=code_radius,
        )
        self.backend = LosslessBackend(backend)

    @property
    def code_radius(self) -> int:
        return self._codec.code_radius

    def _codec_for(self, ndim: int) -> BlockCodec:
        return self._codec if ndim == 2 else self._codec_3d

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def compress(
        self,
        field: np.ndarray,
        *,
        halo=None,
        collect_context: bool = False,
    ) -> CompressedField:
        """Compress a field, optionally against a tile halo.

        With ``halo`` (a :class:`~repro.compressors.halo.TileHalo`), the
        block codec's Lorenzo predictor differences across the tile's low
        faces using the neighbour planes, and the symbol stream may be
        context coded against ``halo.context`` — the payload then carries
        flag 2 and can only be decoded with the same halo.
        ``collect_context`` attaches this tile's own
        :class:`~repro.encoding.context.EntropyContext` to the result for
        downstream neighbours.
        """

        original = ensure_ndim(field, (2, 3), "field")
        original_dtype = np.asarray(field).dtype
        values = ensure_float_array(original, "field")
        codec = self._codec_for(values.ndim)

        halo_planes = None
        halo_axes_mask = 0
        halo_context = None
        if halo is not None:
            halo_axes_mask = halo.axes_mask & ((1 << values.ndim) - 1)
            if halo_axes_mask:
                halo_planes = [halo.plane(axis) for axis in range(values.ndim)]
            halo_context = halo.context

        encoding = codec.encode(values, halo_planes=halo_planes)
        # Verbatim storage (CR ~= 1) when the bound is too small for the
        # integer grid (``None``) or round-off on q*step at extreme
        # magnitude/bound ratios exceeds it by a few ulps.
        max_error = None
        if encoding is not None:
            max_error = float(np.abs(values - encoding.reconstruction).max(initial=0.0))
        if max_error is None or max_error > self.error_bound:
            return self._raw_fallback(_header(_FLAG_RAW, values.ndim), values, original_dtype)

        halo_coded = halo_planes is not None or halo_context is not None
        payload = _header(_FLAG_HALO if halo_coded else 0, values.ndim)
        if halo_coded:
            payload.varint(halo_axes_mask)
        payload.varints(encoding.original_shape)
        payload.varint(codec.block_size)
        payload.f64(self.error_bound)
        payload.varint(self.code_radius)
        payload.varints(encoding.n_blocks)
        payload.blob(np.packbits(encoding.modes.astype(np.uint8).ravel()).tobytes())
        coeff_blob = b""
        if encoding.coeff_codes is not None:
            coeff_blob = encode_signed_varint_array(encoding.coeff_codes.ravel())
        payload.blob(coeff_blob)
        payload.blob(
            self.backend.encode_symbols(encoding.symbols.ravel(), context=halo_context)
        )
        payload.varint(encoding.outliers.size)
        payload.blob(encode_signed_varint_array(encoding.outliers))

        return CompressedField(
            data=bytes(payload),
            original_shape=tuple(encoding.original_shape),
            original_dtype=original_dtype,
            compressor=self.name,
            error_bound=self.error_bound,
            reconstruction=encoding.reconstruction,
            extras={
                "unpredictable_fraction": encoding.unpredictable_fraction,
                "regression_block_fraction": encoding.regression_fraction,
                "n_blocks": float(int(np.prod(encoding.n_blocks))),
                "halo_coded": float(halo_coded),
                "max_error": self._require_bound(max_error),
            },
            entropy_context=entropy_context([encoding.symbols.ravel()], collect_context),
        )

    # ------------------------------------------------------------------
    # decompression
    # ------------------------------------------------------------------
    def decompress(self, compressed: CompressedField, *, halo=None) -> np.ndarray:
        return self._decode(compressed, halo, want_context=False)[0]

    def decompress_with_context(self, compressed: CompressedField, halo=None):
        return self._decode(compressed, halo, want_context=True)

    def _decode(self, compressed: CompressedField, halo, want_context: bool = False):
        reader = Reader(compressed.data)
        magic = reader.take(4)
        if magic not in (_MAGIC, _MAGIC_VOLUME):
            raise CompressorError("not an SZ-like container")
        flag = reader.varint()
        ndim = 2
        if magic == _MAGIC_VOLUME:
            ndim = reader.varint()
            if ndim != 3:
                raise CompressorError(f"sz: unsupported volume dimensionality {ndim}")
        halo_planes = None
        halo_context = None
        if flag == _FLAG_HALO:
            axes_mask = reader.varint()
            halo = self._require_halo(halo, needs_context=False)
            halo_planes = [
                halo.plane(axis) if axes_mask >> axis & 1 else None for axis in range(ndim)
            ]
            for axis in range(ndim):
                if axes_mask >> axis & 1 and halo_planes[axis] is None:
                    raise CompressorError(
                        f"sz: halo-coded container needs the axis-{axis} neighbour plane"
                    )
            halo_context = halo.context
        elif flag not in (0, _FLAG_RAW):
            raise CompressorError(f"sz: unknown container flag {flag}")
        original_shape = tuple(reader.varint() for _ in range(ndim))
        if flag == _FLAG_RAW:
            return self._read_raw(reader, original_shape), None

        block_size = reader.varint()
        error_bound = reader.f64()
        code_radius = reader.varint()
        n_blocks = [reader.varint() for _ in range(ndim)]
        total_blocks = int(np.prod(n_blocks))

        mode_bits = np.frombuffer(reader.blob(), dtype=np.uint8)
        modes = (
            np.unpackbits(mode_bits)[:total_blocks].reshape(n_blocks).astype(np.int64)
        )

        coeffs = Reader(reader.blob())
        n_regression = int((modes == MODE_REGRESSION).sum())
        n_coeffs = 1 + ndim
        coeff_codes = None
        if n_regression:
            coeff_codes = coeffs.signed_varints(n_regression * n_coeffs).reshape(
                n_regression, n_coeffs
            )
        if coeffs.remaining:
            raise CompressorError("regression coefficient stream length mismatch")

        symbols = self.backend.decode_symbols(
            reader.blob(), context=halo_context, max_count=total_blocks * block_size**ndim
        )
        n_outliers = reader.varint()
        outliers = Reader(reader.blob()).signed_varints(n_outliers)

        codec = BlockCodec(
            error_bound, block_size=block_size, code_radius=code_radius
        )
        values = codec.decode(
            modes,
            symbols.reshape(total_blocks, block_size**ndim),
            outliers,
            coeff_codes,
            original_shape,
            halo_planes=halo_planes,
        )
        return values, entropy_context([symbols.ravel()], want_context)


def _header(flag: int, ndim: int) -> Writer:
    """Magic, flag (0 plain / 1 raw / 2 halo) and, for volumes, ``ndim``."""

    header = Writer(_MAGIC if ndim == 2 else _MAGIC_VOLUME)
    header.varint(flag)
    if ndim != 2:
        header.varint(ndim)
    return header
