"""Shared NumPy-vectorized, dimension-general block-codec engine.

Every block-structured compressor in this package (the SZ-like predictor
pipeline, the hyperplane regression predictor, the shared linear quantizer,
and the MGARD-like level quantizer) is built on the primitives in this
module.  The engine's contract is that **no stage loops over blocks or
elements in Python**: fields are partitioned into a ``(*n_blocks, *block)``
block tensor once — ``(nbi, nbj, bs, bs)`` for a 2D field,
``(nbi, nbj, nbk, bs, bs, bs)`` for a 3D volume — and every subsequent
step — prediction, quantization, mode selection, unpredictable-value
routing — is a whole-tensor array operation.

Layer map
---------

* **Partition / merge** — :func:`partition_field` / :func:`merge_field`
  (edge-padded block views and the inverse crop).
* **Prediction** — :func:`lorenzo_residuals` / :func:`lorenzo_reconstruct`
  (first-order N-d Lorenzo in integer-code space over all blocks at once)
  and the hyperplane regression family (:func:`fit_block_planes`,
  :func:`plane_predictions`, coefficient quantization) — a plane
  ``beta0 + beta_i*i + beta_j*j`` in 2D, the trilinear-regression
  hyperplane ``beta0 + beta_i*i + beta_j*j + beta_k*k`` in 3D.
* **Quantization** — :func:`quantize_to_grid` (single ``np.rint`` pass onto
  the ``2*eb`` grid with overflow detection).
* **Block codec** — :class:`BlockCodec` composes the above into the
  encode/decode pipeline shared by the SZ-like compressor: pre-quantize,
  predict with every enabled predictor, select the cheaper mode per block,
  and split out-of-radius residuals into an exact side channel.

The container/serialisation layer stays with the individual compressors;
this module deals only in arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import span as obs_span
from repro.utils.blocking import block_view, pad_to_multiple, reassemble_blocks
from repro.utils.validation import ensure_ndim, ensure_positive

__all__ = [
    "DEFAULT_CODE_RADIUS",
    "MODE_LORENZO",
    "MODE_REGRESSION",
    "partition_field",
    "merge_field",
    "lorenzo_residuals",
    "lorenzo_reconstruct",
    "halo_lorenzo_correction",
    "plane_design_matrix",
    "fit_block_planes",
    "coefficient_precisions",
    "quantize_plane_coefficients",
    "dequantize_plane_coefficients",
    "plane_predictions",
    "quantize_to_grid",
    "select_block_modes",
    "split_unpredictable",
    "merge_unpredictable",
    "BlockEncoding",
    "BlockCodec",
]

#: Default maximum |code|; matches SZ's default of 2^16 quantization intervals
#: (radius 2^15) — beyond that a value is declared unpredictable.
DEFAULT_CODE_RADIUS = 1 << 15

#: Per-block predictor modes (stored as one bit per block in the containers).
MODE_LORENZO = 0
MODE_REGRESSION = 1

#: Cost-model overhead charged to a regression block for storing its plane
#: coefficients per coefficient (~16 bits each; a 2D plane has 3, a 3D
#: hyperplane 4).
REGRESSION_OVERHEAD_BITS_PER_COEFF = 16.0

#: Safety margin for the pre-quantization integer grid (int64).
MAX_SAFE_CODE = float(2**62)


def _infer_block_ndim(blocks: np.ndarray, block_ndim: Optional[int]) -> int:
    """Number of trailing block axes of a ``(*batch, *block)`` tensor.

    When ``block_ndim`` is not given the tensor is assumed to be a full
    ``(*n_blocks, *block)`` partition, i.e. half its axes are block axes.
    """

    if block_ndim is None:
        if blocks.ndim % 2 or blocks.ndim < 4:
            raise ValueError(
                f"expected a (*n_blocks, *block) tensor, got shape {blocks.shape}"
            )
        block_ndim = blocks.ndim // 2
    if not 1 <= block_ndim <= blocks.ndim:
        raise ValueError(
            f"block_ndim={block_ndim} invalid for tensor of shape {blocks.shape}"
        )
    return int(block_ndim)


# ----------------------------------------------------------------------
# partition / merge
# ----------------------------------------------------------------------
def partition_field(
    field: np.ndarray, block_size: int, *, mode: str = "edge"
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Pad an N-d field and view it as a ``(*n_blocks, *block)`` block tensor.

    Returns ``(blocks, original_shape)``; ``blocks`` is a strided view of
    the padded array (no copy) and ``original_shape`` is what
    :func:`merge_field` needs to crop the reconstruction.
    """

    padded, original_shape = pad_to_multiple(field, block_size, mode=mode)
    return block_view(padded, block_size), original_shape


def merge_field(blocks: np.ndarray, original_shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`partition_field`: reassemble blocks and crop."""

    return reassemble_blocks(blocks, original_shape)


# ----------------------------------------------------------------------
# Lorenzo prediction (integer-code space, all blocks at once)
# ----------------------------------------------------------------------
def lorenzo_residuals(
    code_blocks: np.ndarray, *, block_ndim: Optional[int] = None
) -> np.ndarray:
    """First-order N-d Lorenzo differences within each block.

    ``code_blocks`` has shape ``(*batch, *block)`` (integer quantization
    codes); the last ``block_ndim`` axes are the block axes.  The N-d
    Lorenzo residual is the composition of the backward difference along
    every block axis — the inclusion/exclusion corner predictor (for 3D:
    the seven-neighbour cube-corner prediction).  Out-of-block neighbours
    are treated as zero, so boundary faces fall back to lower-dimensional
    differences and the corner stores the code itself.
    """

    codes = np.asarray(code_blocks, dtype=np.int64)
    ndim = _infer_block_ndim(codes, block_ndim)
    residuals = codes
    for axis in range(codes.ndim - ndim, codes.ndim):
        head = [slice(None)] * codes.ndim
        tail = [slice(None)] * codes.ndim
        head[axis] = slice(1, None)
        tail[axis] = slice(None, -1)
        diffed = residuals.copy()
        diffed[tuple(head)] -= residuals[tuple(tail)]
        residuals = diffed
    return residuals


def lorenzo_reconstruct(
    residual_blocks: np.ndarray, *, block_ndim: Optional[int] = None
) -> np.ndarray:
    """Invert :func:`lorenzo_residuals` via cumulative sums per block axis."""

    residuals = np.asarray(residual_blocks, dtype=np.int64)
    ndim = _infer_block_ndim(residuals, block_ndim)
    codes = residuals
    for axis in range(residuals.ndim - ndim, residuals.ndim):
        codes = np.cumsum(codes, axis=axis)
    return codes


def _blocked_face(face: np.ndarray, block_size: int) -> np.ndarray:
    """View a (d-1)-dim face as ``(*n_blocks_face, *block_face)``.

    ``face`` must already be padded to multiples of ``block_size`` along
    every axis (1D and 2D faces — the low faces of 2D/3D tiles).
    """

    face = np.asarray(face)
    counts = tuple(length // block_size for length in face.shape)
    interleaved = face.reshape(
        tuple(x for count in counts for x in (count, block_size))
    )
    order = tuple(range(0, 2 * face.ndim, 2)) + tuple(range(1, 2 * face.ndim, 2))
    return interleaved.transpose(order)


def halo_lorenzo_correction(
    halo_code_planes: Sequence[Optional[np.ndarray]],
    n_blocks: Tuple[int, ...],
    block_size: int,
) -> np.ndarray:
    """Residual-space correction that makes Lorenzo see across tile seams.

    ``halo_code_planes[a]`` holds the *quantization codes* of the one
    reconstructed neighbour plane adjacent to the tile's low face along
    axis ``a`` (shape: the padded tile with axis ``a`` dropped), or
    ``None``.  The standard per-block Lorenzo treats out-of-block
    neighbours as zero; with a halo, the first plane of the tile-boundary
    blocks should difference against the neighbour plane instead.

    By linearity of the differencing cascade, the halo-aware residual is
    ``lorenzo_residuals(codes) + D(shell)|core`` where the *shell tensor*
    embeds the halo codes at the ``-1`` positions of an extended
    ``(bs+1)^d`` block (zero for interior block faces, replicated from the
    lowest-axis face where two halo faces meet — the one-plane halo
    carries no edge/corner lines), and ``D`` is the same per-axis
    difference cascade.  The returned array has shape
    ``(*n_blocks, *(bs,)*d)`` and is zero except on the first planes of
    tile-boundary blocks, so halo-free axes decode bit-identically.
    """

    ndim = len(n_blocks)
    bs = int(block_size)
    haloed = [
        axis
        for axis in range(ndim)
        if axis < len(halo_code_planes) and halo_code_planes[axis] is not None
    ]
    shell = np.zeros(tuple(n_blocks) + (bs + 1,) * ndim, dtype=np.int64)
    blocked_faces: Dict[int, np.ndarray] = {
        axis: _blocked_face(halo_code_planes[axis], bs) for axis in haloed
    }

    # Every shell position with zero-set Z (extended coordinate 0 on the
    # axes in Z, core elsewhere) takes the face of min(Z), replicated to
    # position 0 along the other axes of Z.
    for size in range(1, len(haloed) + 1):
        for subset in combinations(haloed, size):
            lead = subset[0]
            face = blocked_faces[lead]
            # Index the face at batch/block position 0 along subset[1:].
            # Face axes: batch dims = tile axes without `lead`, then block
            # dims likewise.
            other_axes = [a for a in range(ndim) if a != lead]
            batch_idx = [slice(None)] * (ndim - 1)
            block_idx = [slice(None)] * (ndim - 1)
            for axis in subset[1:]:
                position = other_axes.index(axis)
                batch_idx[position] = 0
                block_idx[position] = 0
            source = face[tuple(batch_idx) + tuple(block_idx)]
            target_batch = tuple(
                0 if axis in subset else slice(None) for axis in range(ndim)
            )
            target_block = tuple(
                0 if axis in subset else slice(1, None) for axis in range(ndim)
            )
            shell[target_batch + target_block] = source

    diffed = lorenzo_residuals(shell, block_ndim=ndim)
    core = (slice(None),) * ndim + (slice(1, None),) * ndim
    return diffed[core]


# ----------------------------------------------------------------------
# hyperplane regression prediction (SZ's second predictor)
# ----------------------------------------------------------------------
def plane_design_matrix(block_size: int, ndim: int = 2) -> np.ndarray:
    """Design matrix ``[1, i, j, ...]`` for every cell of an N-d block."""

    ensure_positive(block_size, "block_size")
    ensure_positive(ndim, "ndim")
    coords = np.indices((block_size,) * ndim).reshape(ndim, -1)
    columns = [np.ones(block_size**ndim)]
    columns.extend(coords.astype(np.float64))
    return np.column_stack(columns)


def fit_block_planes(
    blocks: np.ndarray, *, block_ndim: Optional[int] = None
) -> np.ndarray:
    """Least-squares hyperplane coefficients for every block.

    ``blocks`` has shape ``(*batch, *block)``; the result has shape
    ``(*batch, 1 + block_ndim)`` holding ``(beta0, beta_i, beta_j, ...)``
    per block.  The design matrix is identical for every block, so one
    precomputed pseudo-inverse applied with a single ``einsum`` fits them
    all.
    """

    blocks = np.asarray(blocks)
    ndim = _infer_block_ndim(blocks, block_ndim)
    edges = blocks.shape[blocks.ndim - ndim :]
    if len(set(edges)) != 1:
        raise ValueError("blocks must be square")
    bs = edges[0]
    design = plane_design_matrix(bs, ndim)
    pseudo_inverse = np.linalg.pinv(design)  # (1 + ndim, bs**ndim)
    flat = blocks.reshape(blocks.shape[: blocks.ndim - ndim] + (bs**ndim,))
    return np.einsum("kp,...p->...k", pseudo_inverse, flat.astype(np.float64))


def coefficient_precisions(
    error_bound: float, block_size: int, ndim: int = 2
) -> np.ndarray:
    """Quantization step for (intercept, slope...) hyperplane coefficients.

    Following SZ's choice, the intercept is stored to within the error
    bound itself, while slope coefficients are stored to within
    ``error_bound / block_size`` so the accumulated prediction error across
    a block stays of the order of the error bound.
    """

    ensure_positive(error_bound, "error_bound")
    ensure_positive(block_size, "block_size")
    ensure_positive(ndim, "ndim")
    return np.array(
        [error_bound] + [error_bound / block_size] * ndim, dtype=np.float64
    )


def quantize_plane_coefficients(
    coefficients: np.ndarray, error_bound: float, block_size: int, ndim: int = 2
) -> np.ndarray:
    """Quantize hyperplane coefficients to integer codes (per-coefficient precision)."""

    precisions = coefficient_precisions(error_bound, block_size, ndim)
    coeffs = np.asarray(coefficients, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        ratios = np.rint(coeffs / precisions)
    # Plane fits of a non-finite field yield non-finite coefficients; mask
    # them before the int64 cast (which wraps silently) so the affected
    # blocks carry a zero plane and lose in mode selection instead of
    # corrupting the container.
    return np.where(np.isfinite(ratios), ratios, 0.0).astype(np.int64)


def dequantize_plane_coefficients(
    codes: np.ndarray, error_bound: float, block_size: int, ndim: int = 2
) -> np.ndarray:
    """Inverse of :func:`quantize_plane_coefficients`."""

    precisions = coefficient_precisions(error_bound, block_size, ndim)
    return np.asarray(codes, dtype=np.float64) * precisions


def plane_predictions(coefficients: np.ndarray, block_size: int) -> np.ndarray:
    """Evaluate hyperplane predictions for every block.

    ``coefficients`` has shape ``(*batch, 1 + ndim)``; the result has shape
    ``(*batch, bs, ..., bs)`` with ``ndim`` trailing block axes.
    """

    coeffs = np.asarray(coefficients, dtype=np.float64)
    if coeffs.ndim < 1 or coeffs.shape[-1] < 2:
        raise ValueError(
            f"expected (*batch, 1 + ndim) coefficients, got {coeffs.shape}"
        )
    ndim = coeffs.shape[-1] - 1
    coords = np.indices((block_size,) * ndim).astype(np.float64)
    batch = coeffs.shape[:-1]
    expand = (...,) + (None,) * ndim
    predictions = np.broadcast_to(
        coeffs[..., 0][expand], batch + (block_size,) * ndim
    ).copy()
    for axis in range(ndim):
        predictions += coeffs[..., axis + 1][expand] * coords[axis]
    return predictions


# ----------------------------------------------------------------------
# quantization
# ----------------------------------------------------------------------
def quantize_to_grid(
    values: np.ndarray, step: float, *, max_code: float = MAX_SAFE_CODE
) -> Optional[np.ndarray]:
    """Round a float array onto the ``step`` grid in one ``np.rint`` pass.

    Returns int64 codes such that ``codes * step`` reconstructs each value
    to within ``step / 2``, or ``None`` when any scaled value is non-finite
    or too large for the integer grid (callers fall back to raw storage).
    """

    # The ratio legitimately overflows to inf when the data magnitude dwarfs
    # the step (extreme value / tiny bound); the isfinite check below routes
    # exactly those cases to the caller's raw fallback.
    with np.errstate(over="ignore"):
        scaled = np.asarray(values, dtype=np.float64) / step
    if not np.all(np.isfinite(scaled)):
        return None
    codes = np.rint(scaled)
    if float(np.abs(codes).max(initial=0.0)) > max_code:
        return None
    return codes.astype(np.int64)


# ----------------------------------------------------------------------
# per-block mode selection and the unpredictable side channel
# ----------------------------------------------------------------------
def select_block_modes(
    candidates: Dict[str, np.ndarray],
    *,
    block_ndim: Optional[int] = None,
    regression_overhead_bits: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pick the cheaper predictor per block.

    ``candidates`` maps predictor name (``"lorenzo"`` / ``"regression"``)
    to its ``(*n_blocks, *block)`` residual-code tensor.  The coding cost
    proxy is the total number of significant bits of the residual codes (a
    cheap stand-in for the Huffman-coded size), with a fixed overhead added
    for the coefficients a regression block must store.  Returns
    ``(modes, residuals)`` with ``modes`` in {MODE_LORENZO, MODE_REGRESSION}.
    """

    names = list(candidates)
    first = candidates[names[0]]
    ndim = _infer_block_ndim(np.asarray(first), block_ndim)
    lead = first.ndim - ndim
    if len(names) == 1:
        residuals = candidates[names[0]]
        mode = MODE_LORENZO if names[0] == "lorenzo" else MODE_REGRESSION
        return np.full(residuals.shape[:lead], mode, dtype=np.int64), residuals

    if regression_overhead_bits is None:
        regression_overhead_bits = REGRESSION_OVERHEAD_BITS_PER_COEFF * (1 + ndim)
    block_axes = tuple(range(lead, first.ndim))
    lorenzo = candidates["lorenzo"]
    regression = candidates["regression"]
    cost_lorenzo = np.log2(np.abs(lorenzo) + 1.0).sum(axis=block_axes)
    cost_regression = np.log2(np.abs(regression) + 1.0).sum(axis=block_axes)
    cost_regression = cost_regression + regression_overhead_bits
    modes = np.where(cost_regression < cost_lorenzo, MODE_REGRESSION, MODE_LORENZO)
    expand = (...,) + (None,) * ndim
    residuals = np.where((modes == MODE_REGRESSION)[expand], regression, lorenzo)
    return modes.astype(np.int64), residuals


def split_unpredictable(
    residuals: np.ndarray, code_radius: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split residual codes into bounded symbols and an exact side channel.

    Codes with ``|code| <= code_radius`` become the non-negative symbols
    ``code + code_radius + 1``; larger codes are replaced by the reserved
    symbol 0 and appended (in scan order) to the outlier array.  Returns
    ``(symbols, outliers)`` with ``symbols`` shaped like ``residuals``.
    """

    residuals = np.asarray(residuals, dtype=np.int64)
    outlier_mask = np.abs(residuals) > code_radius
    outliers = residuals[outlier_mask]
    symbols = np.where(outlier_mask, 0, residuals + code_radius + 1)
    return symbols, outliers


def merge_unpredictable(
    symbols: np.ndarray, outliers: np.ndarray, code_radius: int
) -> np.ndarray:
    """Inverse of :func:`split_unpredictable` (flat or shaped symbols)."""

    symbols = np.asarray(symbols, dtype=np.int64)
    residuals = symbols - (code_radius + 1)
    flat = residuals.ravel()
    flat[np.flatnonzero(symbols.ravel() == 0)] = outliers
    return residuals


# ----------------------------------------------------------------------
# the composed block codec (SZ-style predict/quantize/select pipeline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlockEncoding:
    """Array-level output of :meth:`BlockCodec.encode`.

    The container layer serializes these fields; ``reconstruction`` is the
    decoder-identical reconstruction computed as an encode by-product.
    """

    original_shape: Tuple[int, ...]
    n_blocks: Tuple[int, ...]  # blocks per dimension
    modes: np.ndarray  # (*n_blocks,) in {MODE_LORENZO, MODE_REGRESSION}
    symbols: np.ndarray  # (prod(n_blocks), bs**ndim) non-negative, 0 = outlier
    outliers: np.ndarray  # exact residual codes beyond the radius, scan order
    coeff_codes: Optional[np.ndarray]  # (n_regression_blocks, 1 + ndim) or None
    reconstruction: np.ndarray

    @property
    def unpredictable_fraction(self) -> float:
        if self.symbols.size == 0:
            return 0.0
        return float((self.symbols == 0).mean())

    @property
    def regression_fraction(self) -> float:
        if self.modes.size == 0:
            return 0.0
        return float((self.modes == MODE_REGRESSION).mean())


class BlockCodec:
    """SZ-style block predict/quantize/select engine (arrays in, arrays out).

    The reference SZ predicts from *reconstructed* neighbour values, which
    serialises the scan.  This engine pre-quantizes the field onto the
    ``2*error_bound`` grid (so every reconstructed value equals
    ``2*eb*q`` exactly) and predicts in integer-code space.  Prediction
    from codes is then identical to prediction from reconstructed values,
    the point-wise error bound holds by construction, and both predictors
    reduce to pure NumPy operations over all blocks at once.

    The codec is dimension-general: 2D fields use 2D Lorenzo + plane
    regression, 3D volumes use the cube-corner Lorenzo predictor + the
    trilinear regression hyperplane, through the same code path.
    """

    def __init__(
        self,
        error_bound: float,
        *,
        block_size: int = 16,
        predictors: Tuple[str, ...] = ("lorenzo", "regression"),
        code_radius: int = DEFAULT_CODE_RADIUS,
    ) -> None:
        ensure_positive(error_bound, "error_bound")
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        if not predictors:
            raise ValueError("at least one predictor must be enabled")
        for predictor in predictors:
            if predictor not in ("lorenzo", "regression"):
                raise ValueError(f"unknown predictor {predictor!r}")
        if code_radius < 1:
            raise ValueError("code_radius must be >= 1")
        self.error_bound = float(error_bound)
        self.block_size = int(block_size)
        self.predictors = tuple(predictors)
        self.code_radius = int(code_radius)

    @property
    def step(self) -> float:
        return 2.0 * self.error_bound

    # ------------------------------------------------------------------
    def _halo_code_planes(
        self,
        halo_planes: Optional[Sequence[Optional[np.ndarray]]],
        original_shape: Tuple[int, ...],
        padded_shape: Tuple[int, ...],
    ) -> Optional[list]:
        """Quantize neighbour halo planes onto the code grid (or ``None``).

        Planes come in at the tile's *original* cross-section and are
        edge-padded to the padded tile; a plane whose codes overflow the
        integer grid is dropped.  Every step is a pure function of the
        plane values, so encoder and decoder (which receive bit-identical
        reconstructed planes) derive bit-identical code planes.
        """

        if halo_planes is None:
            return None
        ndim = len(original_shape)
        out: list = [None] * ndim
        for axis in range(min(ndim, len(halo_planes))):
            plane = halo_planes[axis]
            if plane is None:
                continue
            expected = tuple(
                s for i, s in enumerate(original_shape) if i != axis
            )
            plane = np.asarray(plane, dtype=np.float64)
            if plane.shape != expected:
                raise ValueError(
                    f"halo plane for axis {axis} has shape {plane.shape}, "
                    f"expected {expected}"
                )
            target = tuple(s for i, s in enumerate(padded_shape) if i != axis)
            pads = tuple((0, t - s) for s, t in zip(plane.shape, target))
            if any(p[1] for p in pads):
                plane = np.pad(plane, pads, mode="edge")
            codes = quantize_to_grid(plane, self.step)
            if codes is None:
                continue
            out[axis] = codes
        return out if any(p is not None for p in out) else None

    # ------------------------------------------------------------------
    def encode(
        self,
        values: np.ndarray,
        halo_planes: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> Optional[BlockEncoding]:
        """Encode a 2D/3D float field; ``None`` when the integer grid overflows.

        ``halo_planes`` optionally supplies, per axis, the one
        reconstructed neighbour plane adjacent to the tile's low face;
        the Lorenzo candidate then predicts across the seam (see
        :func:`halo_lorenzo_correction`).  ``decode`` must receive the
        same planes.
        """

        values = ensure_ndim(values, (2, 3), "values")
        ndim = values.ndim
        with obs_span("codec.encode.quantize", "codec"):
            padded, original_shape = pad_to_multiple(values, self.block_size)
            q = quantize_to_grid(padded, self.step)
        if q is None:
            return None

        code_blocks = block_view(q, self.block_size)
        value_blocks = block_view(padded, self.block_size)
        n_blocks = code_blocks.shape[:ndim]
        bs = self.block_size

        candidates: Dict[str, np.ndarray] = {}
        reg_coeff_codes = None
        with obs_span("codec.encode.predict", "codec"):
            if "lorenzo" in self.predictors:
                lorenzo = lorenzo_residuals(code_blocks, block_ndim=ndim)
                halo_codes = self._halo_code_planes(
                    halo_planes, original_shape, padded.shape
                )
                if halo_codes is not None:
                    lorenzo = lorenzo + halo_lorenzo_correction(
                        halo_codes, n_blocks, bs
                    )
                candidates["lorenzo"] = lorenzo
            if "regression" in self.predictors:
                coefficients = fit_block_planes(value_blocks, block_ndim=ndim)
                reg_coeff_codes = quantize_plane_coefficients(
                    coefficients, self.error_bound, bs, ndim
                )
                quantized_coeffs = dequantize_plane_coefficients(
                    reg_coeff_codes, self.error_bound, bs, ndim
                )
                predictions = plane_predictions(quantized_coeffs, bs)
                # repro-lint: disable=unsafe-cast -- predictions are dequantized int64 codes times validated positive precisions; finite by construction
                predicted_codes = np.rint(predictions / self.step).astype(np.int64)
                candidates["regression"] = code_blocks - predicted_codes

        with obs_span("codec.encode.backend", "codec"):
            modes, residual_blocks = select_block_modes(candidates, block_ndim=ndim)
            flat = residual_blocks.reshape(int(np.prod(n_blocks)), bs**ndim)
            symbols, outliers = split_unpredictable(flat, self.code_radius)

        coeff_codes = None
        if reg_coeff_codes is not None:
            coeff_codes = reg_coeff_codes[modes == MODE_REGRESSION]

        crop = tuple(slice(0, s) for s in original_shape)
        reconstruction = (q.astype(np.float64) * self.step)[crop]
        return BlockEncoding(
            original_shape=original_shape,
            n_blocks=n_blocks,
            modes=modes,
            symbols=symbols,
            outliers=outliers,
            coeff_codes=coeff_codes,
            reconstruction=reconstruction,
        )

    # ------------------------------------------------------------------
    def decode(
        self,
        modes: np.ndarray,
        symbols: np.ndarray,
        outliers: np.ndarray,
        coeff_codes: Optional[np.ndarray],
        original_shape: Tuple[int, ...],
        halo_planes: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """Reconstruct the field from the arrays produced by :meth:`encode`.

        ``halo_planes`` must be the same neighbour planes the encoder saw
        (bit-identical reconstructed data) whenever the tile was encoded
        with a halo.
        """

        bs = self.block_size
        ndim = len(original_shape)
        n_blocks = modes.shape
        if len(n_blocks) != ndim:
            raise ValueError(
                f"modes shape {modes.shape} does not match a {ndim}D field"
            )
        with obs_span("codec.decode.backend", "codec"):
            residuals = merge_unpredictable(symbols, outliers, self.code_radius)
            residual_blocks = residuals.reshape(n_blocks + (bs,) * ndim)

        with obs_span("codec.decode.predict", "codec"):
            code_blocks = np.empty_like(residual_blocks)
            lorenzo_mask = modes == MODE_LORENZO
            if lorenzo_mask.any():
                lorenzo_residual_blocks = residual_blocks
                padded_shape = tuple(n * bs for n in n_blocks)
                halo_codes = self._halo_code_planes(
                    halo_planes, original_shape, padded_shape
                )
                if halo_codes is not None:
                    lorenzo_residual_blocks = residual_blocks - halo_lorenzo_correction(
                        halo_codes, n_blocks, bs
                    )
                code_blocks[lorenzo_mask] = lorenzo_reconstruct(
                    lorenzo_residual_blocks[lorenzo_mask], block_ndim=ndim
                )
            regression_mask = modes == MODE_REGRESSION
            if regression_mask.any():
                if coeff_codes is None:
                    raise ValueError("regression blocks present but no coefficients given")
                quantized_coeffs = dequantize_plane_coefficients(
                    coeff_codes, self.error_bound, bs, ndim
                ).reshape(-1, 1 + ndim)
                predictions = plane_predictions(quantized_coeffs, bs)
                # repro-lint: disable=unsafe-cast -- predictions are dequantized int64 codes times validated positive precisions; finite by construction
                predicted_codes = np.rint(predictions / self.step).astype(np.int64)
                code_blocks[regression_mask] = (
                    residual_blocks[regression_mask] + predicted_codes
                )

        with obs_span("codec.decode.dequantize", "codec"):
            q = merge_field(code_blocks, tuple(n * bs for n in n_blocks))
            field = q.astype(np.float64) * self.step
            return field[tuple(slice(0, s) for s in original_shape)]
