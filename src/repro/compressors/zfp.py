"""ZFP-like transform-based error-bounded compressor.

Mirrors the structure of ZFP's fixed-accuracy mode as described in the
paper's Section II-A:

1. the field is partitioned into 4x4 blocks (2D) or 4x4x4 blocks (3D);
2. each block is converted to a *block-floating-point* representation: the
   block's values are normalised by a per-block power-of-two exponent
   (``emax``), so every block lives on the same [-1, 1] scale;
3. a separable near-orthogonal transform decorrelates the block (the
   orthonormal DCT here; see :mod:`repro.compressors.transform`);
4. coefficients are quantized with a step tied to the absolute error
   tolerance *and the block exponent* — the block-floating-point analogue
   of ZFP truncating low-order bit planes — so high-magnitude blocks keep
   more precision, exactly as in ZFP's accuracy mode;
5. the quantized coefficients are entropy coded in a **bit-plane-grouped
   sequency-partitioned stream** (standing in for ZFP's embedded
   group-testing coder): sequency planes are grouped by the bit width of
   their zigzag codes, each group is one backend stream with a short
   alphabet, and all-zero groups cost no stream at all.

Every per-block stage (exponents, normalisation, the safe coefficient
quantization, plane grouping) lives in the shared dimension-general array
engine in :mod:`repro.compressors.transform`; this module owns only the
container formats.  2D fields use the ``ZFR2`` layout (bytes unchanged by
the N-d generalisation); 3D volumes use the ``ZFV1`` layout, which stores
the dimensionality explicitly and streams ``bs**3`` sequency planes.
Side channels are array-encoded like the SZ container's: block flags and
active-block exponents go through the lossless backend, and only *active*
blocks (neither negligible nor exact) carry coefficients.

Error-bound argument
--------------------
With an orthonormal transform, quantizing every coefficient of a block
with step ``2*delta`` changes each coefficient by at most ``delta``, hence
the L2 norm of the coefficient perturbation is at most
``sqrt(bs**d) * delta`` (``bs**d`` coefficients) and, by orthonormality,
so is the L2 norm (and therefore the max norm) of the reconstruction error
in the normalised domain.  Scaling back by ``2**emax`` gives a point-wise
error of at most ``bs**(d/2) * delta * 2**emax``; choosing
``delta = tolerance * 2**-emax / bs**(d/2)`` therefore guarantees the
absolute error bound (for 2D, ``bs**(d/2)`` is exactly ``block_size``, the
factor the original 2D implementation used).  The compressor additionally
verifies the bound on its own reconstruction before returning.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    CompressedField,
    Compressor,
    CompressorError,
    LosslessBackend,
    entropy_context,
)
from repro.compressors.blocks import merge_field, partition_field
from repro.compressors.transform import (
    block_exponents,
    forward_block_transform,
    group_planes_by_width,
    inverse_block_transform,
    quantize_block_coefficients,
    sequency_order_nd,
    sequency_plane_widths,
    zigzag_decode,
    zigzag_encode,
)
from repro.encoding.varint import Reader, Writer
from repro.utils.validation import ensure_float_array, ensure_ndim

__all__ = ["ZFPCompressor"]

_MAGIC = b"ZFR2"
_MAGIC_VOLUME = b"ZFV1"
#: Halo-coded container magics: identical layout, but backend streams may
#: carry the table-free context tag and need the tile halo's entropy
#: context (the reference neighbour's symbol statistics) to decode.
_MAGIC_HALO = b"ZFR3"
_MAGIC_VOLUME_HALO = b"ZFV2"
#: Maximum |code|; blocks whose ratios exceed it fall back to exact storage.
_CODE_RADIUS = 1 << 30
#: Offset applied to the stored minimum exponent so the varint stays
#: non-negative for any float64-representable block magnitude.
_EMAX_OFFSET = 1 << 20

#: Block flag values stored in the per-block side channel.  ACTIVE blocks
#: are coded with the primary step (``delta = tol * 2^-emax / bs``, the
#: factor the 2D error argument proves); ACTIVE_FINE blocks (3D containers
#: only) failed the per-block verification at the primary step and carry
#: codes at the provable ``bs**(d/2)`` step instead.
_FLAG_ACTIVE = 0
_FLAG_NEGLIGIBLE = 1
_FLAG_EXACT = 2
_FLAG_ACTIVE_FINE = 3


class ZFPCompressor(Compressor):
    """ZFP-like transform compressor (fixed-accuracy mode, 2D + 3D).

    Parameters
    ----------
    error_bound:
        Absolute error tolerance.
    block_size:
        Block edge length (4 in ZFP, for both planes and volumes).
    backend:
        Lossless backend for the coefficient code stream.
    """

    name = "zfp"

    def __init__(
        self,
        error_bound: float = 1e-3,
        *,
        block_size: int = 4,
        backend: str = "huffman",
    ) -> None:
        super().__init__(error_bound)
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = int(block_size)
        self.backend = LosslessBackend(backend)

    # ------------------------------------------------------------------
    @staticmethod
    def _coefficient_step(
        emax: np.ndarray,
        error_bound: float,
        ndim: int,
        block_size: int,
        *,
        fine: bool = False,
    ) -> np.ndarray:
        """Quantization step (per block) in the *normalised* domain.

        ``block_size`` is an argument (not read from ``self``) so the
        decompressor applies the block size decoded from the container —
        the containers stay self-describing even for a decoding instance
        configured with a different block size.

        The primary step uses ``delta = tol * 2^-emax / block_size`` — for
        2D this is exactly the provable ``bs**(d/2)`` factor of the
        orthonormality argument (see the module docstring).  For 3D it is
        a deliberate 1-bit-per-coefficient-cheaper heuristic: every block's
        reconstruction is verified during compression, and blocks that
        exceed the bound are re-coded with ``fine=True`` (the provable
        ``bs**(d/2)`` factor), so the hard guarantee is preserved.  The
        step can overflow to inf for subnormal-magnitude blocks under a
        far smaller bound; the quantizer flags such blocks for exact
        storage.
        """

        if fine:
            norm = float(block_size) ** (ndim / 2.0)
        else:
            norm = float(block_size)
        with np.errstate(over="ignore"):
            delta = error_bound * np.exp2(-emax.astype(np.float64)) / norm
            return 2.0 * delta

    # ------------------------------------------------------------------
    def compress(
        self,
        field: np.ndarray,
        *,
        halo=None,
        collect_context: bool = False,
    ) -> CompressedField:
        """Compress a field; ``halo.context`` enables table-free streams.

        ZFP's transform blocks are coded independently, so the halo's
        neighbour *planes* carry no usable prediction here (measured to
        hurt on rough data); what the tiled path loses against untiled
        coding is the per-tile entropy bootstrap, and that is exactly what
        the halo's :class:`~repro.encoding.context.EntropyContext`
        recovers.  ``collect_context`` attaches this tile's own context
        for downstream neighbours.
        """

        original = ensure_ndim(field, (2, 3), "field")
        original_dtype = np.asarray(field).dtype
        values = ensure_float_array(original, "field")
        ndim = values.ndim
        if not np.all(np.isfinite(values)):
            raise CompressorError("zfp: field contains non-finite values")
        halo_context = halo.context if halo is not None and halo.context else None

        blocks_nd, original_shape = partition_field(values, self.block_size)
        counts = blocks_nd.shape[:ndim]
        bs = self.block_size
        blocks = blocks_nd.reshape((int(np.prod(counts)),) + (bs,) * ndim)
        n_blocks = blocks.shape[0]

        emax, negligible, normalised = block_exponents(blocks, self.error_bound)
        coefficients = forward_block_transform(normalised)
        step = self._coefficient_step(emax, self.error_bound, ndim, bs)
        codes, exact_mask = quantize_block_coefficients(
            coefficients, step, ~negligible, _CODE_RADIUS
        )

        # Reconstruction (identical computation to the decompressor).
        fine_mask = np.zeros(n_blocks, dtype=bool)
        recon_blocks = self._reconstruct_blocks(
            codes, emax, negligible, self.error_bound, ndim, bs, fine=fine_mask
        )
        block_errors = np.abs(recon_blocks - blocks).max(
            axis=tuple(range(1, ndim + 1))
        )
        # Negated <= so NaN block errors (possible when emax itself sits at
        # the float range limit) count as violations.
        violating = ~(block_errors <= self.error_bound)

        if ndim > 2:
            # Two-tier step (3D containers): blocks the primary (heuristic)
            # step cannot hold within the bound are re-coded with the
            # provable ``bs**(d/2)`` step before falling back to exact
            # storage.  In 2D the two steps coincide, so the retry is
            # skipped and the legacy single-pass behaviour (and byte
            # stream) is preserved.
            retry = violating & ~exact_mask & ~negligible
            if retry.any():
                fine_step = self._coefficient_step(
                    emax, self.error_bound, ndim, bs, fine=True
                )
                fine_codes, fine_exact = quantize_block_coefficients(
                    coefficients, fine_step, retry, _CODE_RADIUS
                )
                # Re-decode and re-verify only the retried blocks; retries
                # are rare, the other blocks are already settled.
                candidates = np.flatnonzero(retry & ~fine_exact)
                if candidates.size:
                    recon_sub = self._reconstruct_blocks(
                        fine_codes[candidates],
                        emax[candidates],
                        np.zeros(candidates.size, dtype=bool),
                        self.error_bound,
                        ndim,
                        bs,
                        fine=np.ones(candidates.size, dtype=bool),
                    )
                    sub_errors = np.abs(recon_sub - blocks[candidates]).max(
                        axis=tuple(range(1, ndim + 1))
                    )
                    ok = sub_errors <= self.error_bound
                    good = candidates[ok]
                    codes[good] = fine_codes[good]
                    recon_blocks[good] = recon_sub[ok]
                    fine_mask[good] = True
                    violating[good] = False

        exact_mask |= violating
        codes[exact_mask] = 0
        recon_blocks[exact_mask] = blocks[exact_mask]
        fine_mask &= ~exact_mask

        flags = np.zeros(n_blocks, dtype=np.int64)
        flags[negligible] = _FLAG_NEGLIGIBLE
        flags[fine_mask] = _FLAG_ACTIVE_FINE
        flags[exact_mask] = _FLAG_EXACT
        active = (flags == _FLAG_ACTIVE) | (flags == _FLAG_ACTIVE_FINE)

        # ------------------------------------------------------------------
        # container
        # ------------------------------------------------------------------
        halo_coded = halo_context is not None
        if ndim == 2:
            payload = Writer(_MAGIC_HALO if halo_coded else _MAGIC)
        else:
            payload = Writer(_MAGIC_VOLUME_HALO if halo_coded else _MAGIC_VOLUME)
            payload.varint(ndim)
        payload.varints(original_shape)
        payload.varint(self.block_size)
        payload.f64(self.error_bound)
        payload.varints(counts)

        context_streams = [flags]
        payload.blob(self.backend.encode_symbols(flags, context=halo_context))

        # Exponent side channel: active blocks only (negligible blocks
        # reconstruct to zero and exact blocks are stored verbatim).
        emax_active = emax[active]
        emax_min = int(emax_active.min()) if emax_active.size else 0
        payload.varint(emax_min + _EMAX_OFFSET)
        context_streams.append(emax_active - emax_min)
        payload.blob(self.backend.encode_symbols(emax_active - emax_min, context=halo_context))

        # Sequency-partitioned coefficient stream: active blocks' codes are
        # zigzag-mapped, planes grouped by bit width, one short-alphabet
        # backend stream per group (plane-major within the group so the
        # near-zero high-frequency codes form long runs).
        seq = sequency_order_nd(bs, ndim)
        ordered = codes[active][(slice(None),) + seq]  # (n_active, bs**ndim)
        zigzag = zigzag_encode(ordered)
        groups = group_planes_by_width(sequency_plane_widths(zigzag))
        payload.varint(len(groups))
        for start, end, width in groups:
            payload.varints((end - start, width))
            if width > 0:
                group_stream = zigzag[:, start:end].T.ravel()
                context_streams.append(group_stream)
                payload.blob(self.backend.encode_symbols(group_stream, context=halo_context))

        payload.blob(blocks[exact_mask].astype("<f8").tobytes())

        reconstruction = merge_field(
            recon_blocks.reshape(counts + (bs,) * ndim), original_shape
        )
        compressed = CompressedField(
            data=bytes(payload),
            original_shape=tuple(original_shape),
            original_dtype=original_dtype,
            compressor=self.name,
            error_bound=self.error_bound,
            reconstruction=reconstruction,
            extras={
                "negligible_block_fraction": float(negligible.mean()),
                "exact_block_fraction": float(exact_mask.mean()),
                "fine_block_fraction": float(fine_mask.mean()),
                "n_blocks": float(n_blocks),
                "coefficient_stream_groups": float(len(groups)),
                "halo_coded": float(halo_coded),
            },
            entropy_context=entropy_context(context_streams, collect_context),
        )
        self.check_error_bound(values, reconstruction)
        return compressed

    # ------------------------------------------------------------------
    def _reconstruct_blocks(
        self,
        codes: np.ndarray,
        emax: np.ndarray,
        negligible: np.ndarray,
        error_bound: float,
        ndim: int,
        block_size: int,
        fine: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode codes back to value blocks under an explicit bound.

        ``fine`` marks blocks coded with the provable (finer) step tier.
        The bound is an argument (not read from ``self``) so the
        decompressor can apply the bound decoded from the container
        without mutating compressor state — keeping instances reentrant
        and thread-safe.
        """

        step = self._coefficient_step(emax, error_bound, ndim, block_size)
        if fine is not None and fine.any():
            fine_step = self._coefficient_step(
                emax, error_bound, ndim, block_size, fine=True
            )
            step = np.where(fine, fine_step, step)
        expand = (slice(None),) + (None,) * ndim
        # Blocks at the extremes (inf step, emax at the float-range limit)
        # are flagged for exact storage by the caller and their values here
        # overwritten; suppress the transient overflow warnings they cause.
        with np.errstate(over="ignore", invalid="ignore"):
            coefficients = codes.astype(np.float64) * step[expand]
            normalised = inverse_block_transform(coefficients)
            blocks = normalised * np.exp2(emax.astype(np.float64))[expand]
        blocks[negligible] = 0.0
        return blocks

    # ------------------------------------------------------------------
    def decompress(self, compressed: CompressedField, *, halo=None) -> np.ndarray:
        return self._decode(compressed, halo, want_context=False)[0]

    def decompress_with_context(self, compressed: CompressedField, halo=None):
        return self._decode(compressed, halo, want_context=True)

    def _decode(self, compressed: CompressedField, halo, want_context: bool = False):
        reader = Reader(compressed.data)
        magic = reader.take(4)
        if magic not in (_MAGIC, _MAGIC_VOLUME, _MAGIC_HALO, _MAGIC_VOLUME_HALO):
            raise CompressorError("not a ZFP-like container")
        halo_context = None
        if magic in (_MAGIC_HALO, _MAGIC_VOLUME_HALO):
            halo_context = self._require_halo(halo).context
        ndim = 2
        if magic in (_MAGIC_VOLUME, _MAGIC_VOLUME_HALO):
            ndim = reader.varint()
            if ndim != 3:
                raise CompressorError(f"zfp: unsupported volume dimensionality {ndim}")
        original_shape = tuple(reader.varint() for _ in range(ndim))
        bs = reader.varint()
        error_bound = reader.f64()
        counts = tuple(reader.varint() for _ in range(ndim))
        n_blocks = int(np.prod(counts))
        n_planes = bs**ndim
        # Every stream holds at most one symbol per padded element.
        decode = self.backend.decode_symbols
        max_count = n_blocks * n_planes

        flags = decode(reader.blob(), context=halo_context, max_count=max_count)
        if flags.size != n_blocks:
            raise CompressorError("zfp: block flag stream length mismatch")
        context_streams = [flags]
        negligible = flags == _FLAG_NEGLIGIBLE
        exact_mask = flags == _FLAG_EXACT
        fine_mask = flags == _FLAG_ACTIVE_FINE
        active = (flags == _FLAG_ACTIVE) | fine_mask
        n_active = int(active.sum())

        emax_min = reader.varint() - _EMAX_OFFSET
        emax_shifted = decode(reader.blob(), context=halo_context, max_count=max_count)
        context_streams.append(emax_shifted)
        if emax_shifted.size != n_active:
            raise CompressorError("zfp: exponent stream length mismatch")
        emax = np.zeros(n_blocks, dtype=np.int64)
        emax[active] = emax_shifted + emax_min

        n_groups = reader.varint()
        zigzag = np.zeros((n_active, n_planes), dtype=np.int64)
        plane = 0
        for _ in range(n_groups):
            group_planes = reader.varint()
            width = reader.varint()
            if plane + group_planes > n_planes:
                raise CompressorError("zfp: coefficient plane groups exceed block size")
            if width > 0:
                group = decode(reader.blob(), context=halo_context, max_count=max_count)
                if group.size != group_planes * n_active:
                    raise CompressorError("zfp: coefficient group length mismatch")
                context_streams.append(group)
                zigzag[:, plane : plane + group_planes] = group.reshape(
                    group_planes, n_active
                ).T
            plane += group_planes
        if plane != n_planes:
            raise CompressorError("zfp: coefficient plane groups do not cover the block")

        ordered = zigzag_decode(zigzag)
        seq = sequency_order_nd(bs, ndim)
        codes = np.zeros((n_blocks,) + (bs,) * ndim, dtype=np.int64)
        active_codes = np.zeros((n_active,) + (bs,) * ndim, dtype=np.int64)
        active_codes[(slice(None),) + seq] = ordered
        codes[active] = active_codes

        exact_values = np.frombuffer(reader.blob(), dtype="<f8")
        if exact_values.size != int(exact_mask.sum()) * n_planes:
            raise CompressorError("zfp: exact-block side channel length mismatch")

        blocks = self._reconstruct_blocks(
            codes, emax, negligible, float(error_bound), ndim, bs, fine=fine_mask
        )
        if exact_mask.any():
            blocks[exact_mask] = exact_values.reshape((-1,) + (bs,) * ndim)
        field = merge_field(blocks.reshape(counts + (bs,) * ndim), original_shape)
        return field, entropy_context(context_streams, want_context)
