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
reference is kept in :func:`repro.compressors.lorenzo.lorenzo_predict_feedback`
and the test suite checks the two agree on the error-bound invariant and
produce similar code statistics.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from repro.compressors.base import CompressedField, Compressor, CompressorError, LosslessBackend
from repro.compressors.blocks import (
    DEFAULT_CODE_RADIUS,
    MODE_REGRESSION,
    BlockCodec,
)
from repro.encoding.varint import (
    decode_signed_varint_array,
    decode_varint,
    encode_signed_varint_array,
    encode_varint,
)
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
    def block_size(self) -> int:
        return self._codec.block_size

    @property
    def block_size_3d(self) -> int:
        return self._codec_3d.block_size

    @property
    def predictors(self) -> Tuple[str, ...]:
        return self._codec.predictors

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
            halo_planes = [halo.plane(axis) for axis in range(values.ndim)]
            if all(p is None for p in halo_planes):
                halo_planes = None
            else:
                halo_axes_mask = sum(
                    1 << axis
                    for axis, plane in enumerate(halo_planes)
                    if plane is not None
                )
            halo_context = halo.context

        encoding = codec.encode(values, halo_planes=halo_planes)
        if encoding is None:
            # Error bound too small relative to the data magnitude for the
            # integer grid: fall back to verbatim storage (CR ~= 1).
            return self._compress_raw(values, original_dtype)
        max_error = float(np.abs(values - encoding.reconstruction).max(initial=0.0))
        if max_error > self.error_bound:
            # The grid reconstruction is mathematically within eb, but at
            # extreme magnitude/bound ratios floating-point round-off on
            # q*step can exceed it by a few ulps; raw storage keeps the
            # bound a hard guarantee.
            return self._compress_raw(values, original_dtype)

        halo_coded = halo_planes is not None or halo_context is not None
        flag = _FLAG_HALO if halo_coded else 0
        payload = bytearray()
        if values.ndim == 2:
            payload.extend(_MAGIC)
            payload.extend(encode_varint(flag))  # 0 plain / 1 raw / 2 halo
        else:
            payload.extend(_MAGIC_VOLUME)
            payload.extend(encode_varint(flag))
            payload.extend(encode_varint(values.ndim))
        if halo_coded:
            payload.extend(encode_varint(halo_axes_mask))
        for length in encoding.original_shape:
            payload.extend(encode_varint(length))
        payload.extend(encode_varint(codec.block_size))
        payload.extend(struct.pack("<d", self.error_bound))
        payload.extend(encode_varint(self.code_radius))
        for count in encoding.n_blocks:
            payload.extend(encode_varint(count))

        mode_bits = np.packbits(encoding.modes.astype(np.uint8).ravel())
        payload.extend(encode_varint(len(mode_bits)))
        payload.extend(mode_bits.tobytes())

        coeff_blob = b""
        if encoding.coeff_codes is not None:
            coeff_blob = encode_signed_varint_array(encoding.coeff_codes.ravel())
        payload.extend(encode_varint(len(coeff_blob)))
        payload.extend(coeff_blob)

        symbol_blob = self.backend.encode_symbols(
            encoding.symbols.ravel(), context=halo_context
        )
        payload.extend(encode_varint(len(symbol_blob)))
        payload.extend(symbol_blob)

        outlier_blob = encode_signed_varint_array(encoding.outliers)
        payload.extend(encode_varint(int(encoding.outliers.size)))
        payload.extend(encode_varint(len(outlier_blob)))
        payload.extend(outlier_blob)

        compressed = CompressedField(
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
            },
        )
        if collect_context:
            from repro.encoding.context import EntropyContext

            compressed.entropy_context = EntropyContext.from_streams(
                [encoding.symbols.ravel()]
            )
        self.check_error_bound(values, encoding.reconstruction)
        return compressed

    def _compress_raw(self, values: np.ndarray, original_dtype: np.dtype) -> CompressedField:
        payload = bytearray()
        if values.ndim == 2:
            payload.extend(_MAGIC)
            payload.extend(encode_varint(1))  # raw flag
        else:
            payload.extend(_MAGIC_VOLUME)
            payload.extend(encode_varint(1))
            payload.extend(encode_varint(values.ndim))
        for length in values.shape:
            payload.extend(encode_varint(length))
        payload.extend(struct.pack("<d", self.error_bound))
        payload.extend(values.astype("<f8").tobytes())
        return CompressedField(
            data=bytes(payload),
            original_shape=values.shape,
            original_dtype=original_dtype,
            compressor=self.name,
            error_bound=self.error_bound,
            reconstruction=values.copy(),
            extras={"raw_fallback": 1.0},
        )

    # ------------------------------------------------------------------
    # decompression
    # ------------------------------------------------------------------
    def decompress(self, compressed: CompressedField, *, halo=None) -> np.ndarray:
        return self._decode(compressed, halo, want_context=False)[0]

    def decompress_with_context(self, compressed: CompressedField, halo=None):
        return self._decode(compressed, halo, want_context=True)

    def _decode(self, compressed: CompressedField, halo, want_context: bool = False):
        blob = compressed.data
        magic = blob[:4]
        if magic not in (_MAGIC, _MAGIC_VOLUME):
            raise CompressorError("not an SZ-like container")
        pos = 4
        flag, pos = decode_varint(blob, pos)
        if magic == _MAGIC:
            ndim = 2
        else:
            ndim, pos = decode_varint(blob, pos)
            if ndim != 3:
                raise CompressorError(f"sz: unsupported volume dimensionality {ndim}")
        halo_planes = None
        halo_context = None
        if flag == _FLAG_HALO:
            axes_mask, pos = decode_varint(blob, pos)
            if halo is None:
                raise CompressorError(
                    "sz: halo-coded container requires the tile halo to decode"
                )
            halo_planes = []
            for axis in range(ndim):
                if axes_mask & (1 << axis):
                    plane = halo.plane(axis)
                    if plane is None:
                        raise CompressorError(
                            f"sz: halo-coded container needs the axis-{axis} "
                            "neighbour plane"
                        )
                    halo_planes.append(plane)
                else:
                    halo_planes.append(None)
            halo_context = halo.context
        elif flag not in (0, _FLAG_RAW):
            raise CompressorError(f"sz: unknown container flag {flag}")
        shape = []
        for _ in range(ndim):
            length, pos = decode_varint(blob, pos)
            shape.append(length)
        original_shape = tuple(shape)
        if flag == _FLAG_RAW:
            (error_bound,) = struct.unpack_from("<d", blob, pos)
            pos += 8
            count = int(np.prod(original_shape))
            values = np.frombuffer(blob, dtype="<f8", count=count, offset=pos)
            return values.reshape(original_shape).astype(np.float64), None

        block_size, pos = decode_varint(blob, pos)
        (error_bound,) = struct.unpack_from("<d", blob, pos)
        pos += 8
        code_radius, pos = decode_varint(blob, pos)
        n_blocks = []
        for _ in range(ndim):
            count, pos = decode_varint(blob, pos)
            n_blocks.append(count)
        total_blocks = int(np.prod(n_blocks))

        mode_bytes_len, pos = decode_varint(blob, pos)
        mode_bits = np.frombuffer(blob[pos : pos + mode_bytes_len], dtype=np.uint8)
        pos += mode_bytes_len
        modes = (
            np.unpackbits(mode_bits)[:total_blocks].reshape(n_blocks).astype(np.int64)
        )

        coeff_len, pos = decode_varint(blob, pos)
        coeff_end = pos + coeff_len
        n_regression = int((modes == MODE_REGRESSION).sum())
        n_coeffs = 1 + ndim
        coeff_codes = None
        if n_regression:
            flat_coeffs, pos = decode_signed_varint_array(
                blob, n_regression * n_coeffs, pos
            )
            coeff_codes = flat_coeffs.reshape(n_regression, n_coeffs)
        if pos != coeff_end:
            raise CompressorError("regression coefficient stream length mismatch")

        symbol_len, pos = decode_varint(blob, pos)
        symbols = self.backend.decode_symbols(
            blob[pos : pos + symbol_len], context=halo_context
        )
        pos += symbol_len

        n_outliers, pos = decode_varint(blob, pos)
        outlier_len, pos = decode_varint(blob, pos)
        outliers = np.empty(0, dtype=np.int64)
        if n_outliers:
            outliers, pos = decode_signed_varint_array(blob, n_outliers, pos)

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
        context = None
        if want_context:
            from repro.encoding.context import EntropyContext

            context = EntropyContext.from_streams([symbols.ravel()])
        return values, context
