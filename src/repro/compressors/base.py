"""Compressor interfaces and the shared compressed-container format.

Every compressor in this package implements the small
:class:`Compressor` interface:

* ``compress(field) -> CompressedField`` — produce a self-contained byte
  blob plus (optionally) the reconstruction computed as a by-product.  The
  real SZ also knows its reconstruction during compression; exposing it
  here lets the experiment pipeline compute quality metrics without paying
  for a separate decompression pass.
* ``decompress(blob) -> ndarray`` — reconstruct the field from the byte
  blob alone (used by the round-trip tests and by downstream users).
* ``decompress_with_context(blob, halo)`` — the same, plus the entropy
  context that tiled callers chain from tile to tile.

Every method takes an optional ``halo`` (reconstructed neighbour planes
and context, :class:`repro.compressors.halo.TileHalo`).

Compressors are configured with an **absolute error bound** (the mode used
throughout the paper); the invariant ``max|original - reconstruction| <=
error_bound`` is checked by the property-based test-suite for every
compressor.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.encoding import huffman
from repro.encoding.context import EntropyContext
from repro.encoding.rle import rle_decode, rle_encode
from repro.encoding.huffman import (
    _count_symbols,
    huffman_decode,
    huffman_plan,
    huffman_size_bound,
)
from repro.encoding.varint import Reader, Writer, varint_size
from repro.encoding.zstd_like import zstd_like_compress, zstd_like_decompress
from repro.utils.validation import ensure_in

__all__ = [
    "CompressorError",
    "ErrorBoundExceededError",
    "CompressedField",
    "Compressor",
    "LosslessBackend",
    "entropy_context",
]


class CompressorError(RuntimeError):
    """Base class for compressor failures."""


class ErrorBoundExceededError(CompressorError):
    """Raised when a reconstruction violates the configured error bound."""


@dataclass
class CompressedField:
    """A compressed field: the byte blob plus bookkeeping.

    Attributes
    ----------
    data:
        Self-contained compressed representation.
    original_shape:
        Shape of the uncompressed field.
    original_dtype:
        Dtype of the uncompressed field (CR is computed against its itemsize).
    compressor:
        Name of the producing compressor.
    error_bound:
        Absolute error bound the blob was produced with.
    reconstruction:
        Optional reconstruction computed during compression (not part of the
        persisted payload).
    extras:
        Free-form per-compressor diagnostics (e.g. fraction of unpredictable
        values for SZ, truncated bit planes for ZFP).  Every codec's
        ``compress`` reports ``"max_error"``, the maximum absolute error
        it measured against the bound (0.0 for verbatim storage).
    entropy_context:
        Optional :class:`repro.encoding.context.EntropyContext` derived from
        this field's backend symbol streams (in-memory by-product, not part
        of the payload) — neighbouring tiles entropy code against it in
        halo mode.
    """

    data: bytes
    original_shape: tuple
    original_dtype: np.dtype
    compressor: str
    error_bound: float
    reconstruction: Optional[np.ndarray] = None
    extras: Dict[str, float] = field(default_factory=dict)
    entropy_context: Optional[object] = None

    @property
    def original_nbytes(self) -> int:
        """Size of the uncompressed field in bytes."""

        return int(np.prod(self.original_shape)) * np.dtype(self.original_dtype).itemsize

    @property
    def compressed_nbytes(self) -> int:
        """Size of the compressed blob in bytes."""

        return len(self.data)

    @property
    def compression_ratio(self) -> float:
        """Uncompressed size divided by compressed size (the paper's CR)."""

        if self.compressed_nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.compressed_nbytes


def entropy_context(streams, wanted: bool) -> Optional[EntropyContext]:
    """The context of a container's backend streams (``None`` unless ``wanted``).

    Encoders and decoders build it from the same streams, so the context
    a decode returns is the one the encoder attached.
    """

    return EntropyContext.from_streams(streams) if wanted else None


class LosslessBackend:
    """Final lossless stage shared by the SZ-like, ZFP-like and MGARD-like compressors.

    ``"huffman"`` (default) run-length codes the symbol stream and Huffman
    codes both the run values and run lengths — fully vectorised, fast.
    ``"zstd"`` additionally passes the entropy-coded body through the
    vectorized LZ77+Huffman :mod:`repro.encoding.zstd_like` pipeline, which
    mirrors the real SZ/MGARD (Huffman + Zstd) more closely.
    ``"raw"`` stores the symbols as fixed-width integers — the "no entropy
    coding" ablation.

    The ``"huffman"`` and ``"zstd"`` backends encode every stream by one
    selection rule over self-describing candidates, each tagged by its
    leading byte:

    * the entropy stream: ``H`` (Huffman-coded run values and run lengths)
      or, when runs do not pay, ``D`` (the symbols Huffman-coded directly);
      the ``zstd`` backend wraps it as ``Z``;
    * ``P``: fixed-width bit packing.  High-entropy streams (rough data at
      tight bounds) would otherwise pay a Huffman table larger than the
      data itself; real entropy coders degrade to near-raw coding there;
    * ``C``: the table-free code of an entropy context's pool, when the
      caller passes a context with a pool of the stream's bit width.

    Every candidate's exact byte size follows from the stream's symbol
    counts before any bit is packed, and only the winner is built.  A
    Huffman candidate whose lower bound (exact table bytes plus the
    entropy) already loses to the best exact size is not even given a
    code.  Ties go to the entropy stream, then ``P``, then ``C``, so a
    context never makes a stream larger.  ``Z``'s size is known only once
    it is built, so the ``zstd`` ablation builds it.
    """

    NAMES = ("huffman", "zstd", "raw")

    #: Run fraction above which run-length coding stops paying: almost every
    #: run has length 1, so the runs stream costs a second Huffman pass (and
    #: a second decode) for no size win — code the symbols directly instead.
    _RLE_RUN_FRACTION = 0.7

    def __init__(self, name: str = "huffman") -> None:
        self.name = ensure_in(name, self.NAMES, "lossless backend")

    # -- fixed-width packing -------------------------------------------
    @staticmethod
    def _pack_fixed_width(values: np.ndarray, width: int) -> bytes:
        """Fixed-``width`` MSB-first bit packing of non-negative values.

        A single broadcasted shift expands every symbol into exactly
        ``width`` MSB-first bits.  :meth:`_unpack_fixed_width` is the
        matching decoder.
        """

        if values.size == 0:
            return b""
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = (values.astype(np.uint64)[:, None] >> shifts[None, :]) & np.uint64(1)
        return np.packbits(bits.astype(np.uint8).ravel()).tobytes()

    @staticmethod
    def _unpack_fixed_width(data: bytes, count: int, width: int) -> np.ndarray:
        """Inverse of :meth:`_pack_fixed_width`: ``count`` values of ``width`` bits.

        ``count`` and ``width`` come from the payload, so both are checked
        against ``data`` before anything of their size is allocated.  Each
        value's bits are left-padded to a 1/2/4/8-byte big-endian word.
        """

        if not 1 <= width <= 64:
            raise ValueError(f"invalid fixed bit width {width}")
        total = count * width
        if total > 8 * len(data):
            raise EOFError("bit stream exhausted")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=(total + 7) >> 3))
        word = max(8, 1 << (width - 1).bit_length())
        padded = np.zeros((count, word), dtype=np.uint8)
        padded[:, word - width :] = bits[:total].reshape(count, width)
        return np.packbits(padded, axis=1).view(f">u{word // 8}").ravel().astype(np.int64)

    @staticmethod
    def _encode_packed(symbols: np.ndarray, width: int) -> bytes:
        body = Writer(b"P")
        body.varints((symbols.size, width))
        body.extend(LosslessBackend._pack_fixed_width(symbols, width))
        return bytes(body)

    # -- encoding ------------------------------------------------------
    def encode_symbols(self, symbols: np.ndarray, *, context=None) -> bytes:
        """Losslessly encode a non-negative integer symbol stream.

        ``context`` is an optional :class:`repro.encoding.context.EntropyContext`
        (the pooled symbol statistics of an already-reconstructed reference
        tile).  It adds the table-free ``C`` candidate to the selection;
        ``context=None`` gives the context-free bytes.
        """

        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        if symbols.size and symbols.min() < 0:
            raise ValueError("symbols must be non-negative")
        if self.name == "raw":
            body = Writer(b"R")
            body.varint(symbols.size)
            body.extend(symbols.astype("<i8").tobytes())
            return bytes(body)
        _, build = self._select(symbols, context)
        return build()

    def _select(self, symbols: np.ndarray, context) -> Tuple[int, Callable[[], bytes]]:
        """The winning candidate: its exact byte size and its builder."""

        if symbols.size == 0:
            # Tag, count 0, width 0: every entropy stream's header is longer.
            return 3, lambda: self._encode_packed(symbols, 0)
        values, inverse, counts = _count_symbols(symbols)
        width = max(1, int(values[-1]).bit_length())
        packed_size = (
            1 + varint_size(symbols.size) + varint_size(width) + (symbols.size * width + 7) // 8
        )
        candidates = [(packed_size, lambda: self._encode_packed(symbols, width))]
        pool = None if context is None else context.pool(width)
        if pool is not None:
            candidates.append(
                self._context_candidate(symbols, values, inverse, counts, width, pool)
            )
        entropy = self._entropy_candidate(
            symbols, values, inverse, counts, min(size for size, _ in candidates)
        )
        if entropy is not None:
            candidates.insert(0, entropy)
        # ``min`` keeps the first of equal sizes: entropy stream, P, then C.
        return min(candidates, key=lambda candidate: candidate[0])

    def _entropy_candidate(self, symbols, values, inverse, counts, rival: int):
        """The ``H``/``D`` stream (``Z``-wrapped by the zstd backend) as
        ``(size, build)``, or ``None`` when its lower bound exceeds ``rival``."""

        n_runs = 1 + np.count_nonzero(symbols[1:] != symbols[:-1])
        if n_runs > self._RLE_RUN_FRACTION * symbols.size:
            tag, streams = b"D", [(values, inverse, counts)]
        else:
            tag, streams = b"H", [_count_symbols(part) for part in rle_encode(symbols)]
        # A D body is one Huffman stream; an H body frames two as blobs.
        framing = varint_size if tag == b"H" else (lambda size: 0)
        head = 1 + varint_size(symbols.size)
        if self.name == "huffman":
            bounds = [huffman_size_bound(v, c) for v, _, c in streams]
            if head + sum(framing(b) + b for b in bounds) > rival:
                return None
        plans = [huffman_plan(*stream) for stream in streams]

        def build() -> bytes:
            body = Writer(tag)
            body.varint(symbols.size)
            for _, pack in plans:
                (body.blob if tag == b"H" else body.extend)(pack())
            return bytes(body)

        if self.name == "zstd":
            # The Z stream wraps the whole tagged entropy stream, mirroring
            # the real SZ/MGARD Huffman-then-Zstd stage.
            wrapped = b"Z" + zstd_like_compress(build())
            return len(wrapped), lambda: wrapped
        return head + sum(framing(size) + size for size, _ in plans), build

    # -- context-coded (halo) streams ----------------------------------
    def _context_candidate(self, symbols, values, inverse, counts, width: int, pool):
        """Tag-``C`` candidate as ``(size, build)``: code against the
        reference-tile histogram.

        Layout: ``C | varint n | varint pool_width | varint n_escapes |
        packed escape values (pool_width bits each) | bit stream``.  The
        canonical code is derived from the context pool plus the escape
        pseudo-symbol on both sides, so no table is stored.  The size
        needs only the stream's distinct symbols; ``inverse`` spreads their
        code slots over the stream when it is built.
        """

        lens, codes = pool.code_by_symbol
        escape_slot = pool.symbols.size
        slot = np.minimum(np.searchsorted(pool.symbols, values), escape_slot - 1)
        slot[pool.symbols[slot] != values] = escape_slot
        n_escapes = int(counts[slot == escape_slot].sum())
        size = (
            1 + varint_size(symbols.size) + varint_size(width) + varint_size(n_escapes)
            + (n_escapes * width + 7) // 8
            + (int(counts @ lens[slot]) + 7) // 8
        )

        def build() -> bytes:
            slots = slot[inverse]
            body = Writer(b"C")
            body.varints((symbols.size, width, n_escapes))
            body.extend(self._pack_fixed_width(symbols[slots == escape_slot], width))
            body.extend(huffman._pack_codes(codes[slots], lens[slots]))
            return bytes(body)

        return size, build

    def _decode_context_stream(self, body: Reader, count: int, context) -> np.ndarray:
        if context is None:
            raise ValueError("context-coded (halo) stream but no entropy context supplied")
        width = body.varint()
        n_escapes = body.varint()
        pool = context.pool(width)
        if pool is None:
            raise ValueError(f"entropy context has no pool for stream width {width}")
        escapes = self._unpack_fixed_width(
            body.take((n_escapes * width + 7) // 8), n_escapes, width
        )
        syms_c, lens_c, _ = pool.code
        decoded = huffman.huffman_decode_with_code(body.take(body.remaining), count, syms_c, lens_c)
        escape_positions = np.flatnonzero(decoded == pool.escape_symbol)
        if escape_positions.size != n_escapes:
            raise ValueError("context stream escape count mismatch")
        if n_escapes:
            decoded = decoded.copy()
            decoded[escape_positions] = escapes
        return decoded

    @staticmethod
    def _check_run_total(runs: np.ndarray, count: int) -> None:
        """Reject run lengths that do not add up to ``count`` before they expand.

        Each run must lie in ``[1, count]``, so ``n`` runs total at most
        ``n * count``; the int64 sum is exact whenever that fits, and a
        Python sum takes over for the (forged) counts where it does not.
        """

        if runs.size and (int(runs.min()) < 1 or int(runs.max()) > count):
            raise ValueError("lossless payload run length out of range")
        total = int(runs.sum()) if runs.size * count < 2**63 else sum(runs.tolist())
        if total != count:
            raise ValueError("lossless payload symbol count mismatch")

    def decode_symbols(
        self, blob: bytes, *, context=None, max_count: Optional[int] = None
    ) -> np.ndarray:
        """Inverse of :meth:`encode_symbols`.

        ``context`` must be the same :class:`EntropyContext` the encoder
        used whenever the stream carries the ``C`` tag; self-describing
        streams ignore it.  ``max_count`` is the most symbols the
        caller's container can hold: a stream declaring more raises
        :class:`ValueError` before anything of its size is allocated.
        """

        if not blob:
            raise ValueError("empty lossless payload")
        body = Reader(blob)
        tag = body.take(1)
        if tag == b"Z":
            # The decompressed body is a complete tagged entropy stream
            # (H or D, whichever the encoder picked).
            return self.decode_symbols(
                zstd_like_decompress(body.take(body.remaining)), max_count=max_count
            )
        if tag not in (b"C", b"R", b"P", b"D", b"H"):
            raise ValueError(f"unknown lossless backend tag {tag!r}")
        count = body.varint()
        if max_count is not None and count > max_count:
            raise ValueError(
                f"lossless payload declares {count} symbols; its container "
                f"holds at most {max_count}"
            )
        if tag == b"C":
            return self._decode_context_stream(body, count, context)
        if tag == b"R":
            return np.frombuffer(body.take(8 * count), dtype="<i8").astype(np.int64)
        if tag == b"P":
            width = body.varint()
            if count == 0:
                return np.empty(0, dtype=np.int64)
            return self._unpack_fixed_width(body.take(body.remaining), count, width)
        if tag == b"D":
            symbols = huffman_decode(body.take(body.remaining))
        else:
            values = huffman_decode(body.blob())
            runs = huffman_decode(body.blob())
            self._check_run_total(runs, count)
            symbols = rle_decode(values, runs)
        if symbols.size != count:
            raise ValueError("lossless payload symbol count mismatch")
        return symbols


class Compressor(ABC):
    """Abstract error-bounded lossy compressor."""

    #: short, registry-style compressor name ("sz", "zfp", "mgard").
    name: str = "abstract"

    def __init__(self, error_bound: float = 1e-3) -> None:
        if not np.isfinite(error_bound) or error_bound <= 0:
            raise ValueError(f"error_bound must be a positive finite float, got {error_bound!r}")
        self.error_bound = float(error_bound)

    @abstractmethod
    def compress(
        self, field: np.ndarray, *, halo=None, collect_context: bool = False
    ) -> CompressedField:
        """Compress a 2D or 3D field under the configured absolute bound.

        ``halo`` (a :class:`repro.compressors.halo.TileHalo`) holds the
        reconstructed neighbour planes and entropy context a tile may code
        against; ``collect_context`` attaches the tile's own context.
        """

    @abstractmethod
    def decompress(self, compressed: CompressedField, *, halo=None) -> np.ndarray:
        """Reconstruct the field from a :class:`CompressedField`."""

    @abstractmethod
    def decompress_with_context(self, compressed: CompressedField, halo=None):
        """Decode and return ``(values, entropy_context)``.

        The context is the :class:`repro.encoding.context.EntropyContext`
        derived from the container's decoded symbol streams — identical to
        the one the encoder attached — so callers can chain halos through
        a decode pass.
        """

    # ------------------------------------------------------------------
    # container parts shared by the codecs
    # ------------------------------------------------------------------
    def _raw_fallback(
        self, header: Writer, values: np.ndarray, original_dtype: np.dtype
    ) -> CompressedField:
        """Verbatim storage: raw-flag ``header``, shape, bound, float64 values."""

        header.varints(values.shape)
        header.f64(self.error_bound)
        header.extend(values.astype("<f8").tobytes())
        return CompressedField(
            data=bytes(header),
            original_shape=values.shape,
            original_dtype=original_dtype,
            compressor=self.name,
            error_bound=self.error_bound,
            reconstruction=values.copy(),
            extras={"raw_fallback": 1.0, "max_error": 0.0},
        )

    @staticmethod
    def _read_raw(reader: Reader, shape: tuple) -> np.ndarray:
        """The values of a :meth:`_raw_fallback` payload after its shape."""

        reader.f64()  # the bound it was written under; the values are exact
        raw = reader.take(8 * int(np.prod(shape)))
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)

    def _require_halo(self, halo, *, needs_context: bool = True):
        """``halo``, or :class:`CompressorError` when it (or its context) is missing."""

        if halo is None or (needs_context and halo.context is None):
            needed = "tile halo's entropy context" if needs_context else "tile halo"
            raise CompressorError(
                f"{self.name}: halo-coded container requires the {needed} to decode"
            )
        return halo

    # ------------------------------------------------------------------
    def check_error_bound(
        self, original: np.ndarray, reconstruction: np.ndarray, *, tolerance_factor: float = 1.0 + 1e-9
    ) -> float:
        """Verify the point-wise error bound; returns the max absolute error.

        Raises :class:`ErrorBoundExceededError` when violated (a tiny
        relative slack absorbs floating-point round-off in the check
        itself).
        """

        max_error = float(np.max(np.abs(np.asarray(original) - np.asarray(reconstruction))))
        return self._require_bound(max_error, tolerance_factor)

    def _require_bound(self, max_error: float, tolerance_factor: float = 1.0 + 1e-9) -> float:
        """``max_error``, or :class:`ErrorBoundExceededError` when it breaks the bound."""

        # Negated <= so a NaN max error (a reconstruction that went
        # non-finite) fails the check instead of slipping past a ``>``.
        if not (max_error <= self.error_bound * tolerance_factor):
            raise ErrorBoundExceededError(
                f"{self.name}: max reconstruction error {max_error:.3e} exceeds "
                f"error bound {self.error_bound:.3e}"
            )
        return max_error
