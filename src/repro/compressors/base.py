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
from typing import Dict, Optional

import numpy as np

from repro.encoding.bitio import BitReader
from repro.encoding.context import EntropyContext, stream_width
from repro.encoding.rle import rle_decode, rle_encode
from repro.encoding.huffman import huffman_decode, huffman_encode, huffman_encode_with_code
from repro.encoding.varint import Reader, Writer, encode_varint
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
        values for SZ, truncated bit planes for ZFP).
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
    """Final lossless stage shared by the SZ-like and MGARD-like compressors.

    ``"huffman"`` (default) run-length codes the symbol stream and Huffman
    codes both the run values and run lengths — fully vectorised, fast.
    ``"zstd"`` additionally passes the entropy-coded body through the
    vectorized LZ77+Huffman :mod:`repro.encoding.zstd_like` pipeline, which
    mirrors the real SZ/MGARD (Huffman + Zstd) more closely.
    ``"raw"`` stores the symbols as fixed-width integers — the "no entropy
    coding" ablation.

    For the ``"huffman"`` and ``"zstd"`` backends the encoder also builds a
    plain fixed-width bit-packed candidate and keeps whichever is smaller.
    High-entropy code streams (rough data at tight error bounds) would
    otherwise pay a Huffman symbol-table overhead larger than the data
    itself; real entropy coders degrade to near-raw coding in that regime,
    and so does this one.  When the entropy lower bound alone proves that
    packing wins (wide near-uniform alphabets, e.g. the ZFP-like DC
    planes), the Huffman build is skipped outright.  The stream stays
    self-describing via a tag byte.
    """

    NAMES = ("huffman", "zstd", "raw")

    def __init__(self, name: str = "huffman") -> None:
        self.name = ensure_in(name, self.NAMES, "lossless backend")

    # -- encoding ------------------------------------------------------
    @staticmethod
    def _pack_fixed_width(values: np.ndarray, width: int) -> bytes:
        """Fixed-``width`` MSB-first bit packing of non-negative values.

        A single broadcasted shift expands every symbol into exactly
        ``width`` MSB-first bits — byte-identical to the general
        variable-width ``BitWriter.write_bits_array`` path, without its
        per-symbol repeat/cumsum machinery.  ``BitReader.read_bits_array``
        is the matching decoder.
        """

        if values.size == 0:
            return b""
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = (values.astype(np.uint64)[:, None] >> shifts[None, :]) & np.uint64(1)
        return np.packbits(bits.astype(np.uint8).ravel()).tobytes()

    @staticmethod
    def _encode_packed(symbols: np.ndarray) -> bytes:
        """Self-describing fixed-width packing of a symbol stream."""

        body = Writer()
        body.varint(symbols.size)
        if symbols.size == 0:
            body.varint(0)
            return bytes(body)
        width = max(1, int(symbols.max()).bit_length())
        body.varint(width)
        body.extend(LosslessBackend._pack_fixed_width(symbols, width))
        return bytes(body)

    @staticmethod
    def _decode_packed(body: Reader) -> np.ndarray:
        count = body.varint()
        width = body.varint()
        if count == 0:
            return np.empty(0, dtype=np.int64)
        bits = BitReader(body.take(body.remaining))
        return bits.read_bits_array(np.full(count, width, dtype=np.int64)).astype(np.int64)

    #: Run fraction above which run-length coding stops paying: almost every
    #: run has length 1, so the runs stream costs a second Huffman pass (and
    #: a second decode) for no size win — code the symbols directly instead.
    _RLE_RUN_FRACTION = 0.7

    @staticmethod
    def _encode_huffman_body(symbols: np.ndarray, values: np.ndarray, runs: np.ndarray) -> bytes:
        body = Writer()
        body.varint(symbols.size)
        body.blob(huffman_encode(values))
        body.blob(huffman_encode(runs))
        return bytes(body)

    @staticmethod
    def _encode_direct_body(symbols: np.ndarray) -> bytes:
        body = Writer()
        body.varint(symbols.size)
        body.extend(huffman_encode(symbols))
        return bytes(body)

    @staticmethod
    def _packed_beats_entropy_bound(symbols: np.ndarray) -> bool:
        """True when fixed-width packing provably beats any direct Huffman
        stream, so the tree build can be skipped outright.

        Any direct-Huffman candidate costs at least ``n*H/8`` payload bytes
        (entropy lower bound) plus 2 bytes per alphabet entry of symbol
        table.  Wide, near-uniform streams (e.g. the DC-side coefficient
        planes of the ZFP-like compressor) fail that bound analytically;
        building and then discarding their multi-thousand-symbol Huffman
        tables was the dominant cost of the whole encode.
        """

        n = symbols.size
        vmin = int(symbols.min())
        span = int(symbols.max()) - vmin + 1
        if span > max(65536, 4 * n):
            return False  # histogram too wide to be worth the pre-check
        counts = np.bincount(symbols - vmin, minlength=span)
        counts = counts[counts > 0]
        p = counts / n
        entropy_bytes = float(-(p * np.log2(p)).sum()) * n / 8.0
        lower_bound = 2.0 + 2.0 * counts.size + entropy_bytes
        return LosslessBackend._packed_size(symbols) <= lower_bound

    @staticmethod
    def _packed_size(symbols: np.ndarray) -> int:
        """Exact byte size of ``b"P" + _encode_packed(symbols)`` without building it."""

        if symbols.size == 0:
            return 3  # tag, count 0, width 0
        width = max(1, int(symbols.max()).bit_length())
        return (
            1
            + len(encode_varint(symbols.size))
            + len(encode_varint(width))
            + (symbols.size * width + 7) // 8
        )

    def encode_symbols(self, symbols: np.ndarray, *, context=None) -> bytes:
        """Losslessly encode a non-negative integer symbol stream.

        ``context`` is an optional :class:`repro.encoding.context.EntropyContext`
        (the pooled symbol statistics of an already-reconstructed reference
        tile).  When given, a table-free context-coded candidate (tag
        ``C``) competes against the self-describing candidates and wins
        only when strictly smaller — so context can never make a stream
        larger, and ``context=None`` reproduces the exact legacy bytes.
        """

        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        if symbols.size and symbols.min() < 0:
            raise ValueError("symbols must be non-negative")
        best = self._encode_symbols_plain(symbols)
        if context is not None and self.name != "raw" and symbols.size:
            candidate = self._encode_context_candidate(symbols, context)
            if candidate is not None and len(candidate) < len(best):
                return candidate
        return best

    def _encode_symbols_plain(self, symbols: np.ndarray) -> bytes:
        """The self-describing (context-free) encoding of a symbol stream."""

        if self.name == "raw":
            body = Writer(b"R")
            body.varint(symbols.size)
            body.extend(symbols.astype("<i8").tobytes())
            return bytes(body)

        values, runs = rle_encode(symbols)
        if runs.size > self._RLE_RUN_FRACTION * symbols.size:
            # Runs do not pay, so only the direct-Huffman candidate remains;
            # skip even that when packing wins on the entropy lower bound
            # alone.  (The zstd backend always builds its candidate: the
            # ablation measures the full LZ77+Huffman pipeline.)
            if self.name == "huffman" and symbols.size and self._packed_beats_entropy_bound(
                symbols
            ):
                return b"P" + self._encode_packed(symbols)
            entropy_candidate = b"D" + self._encode_direct_body(symbols)
        else:
            entropy_candidate = b"H" + self._encode_huffman_body(symbols, values, runs)
        if self.name == "zstd":
            # The Z stream wraps the better of the two entropy bodies (its
            # own leading tag included), mirroring the real SZ/MGARD
            # Huffman-then-Zstd stage.
            entropy_candidate = b"Z" + zstd_like_compress(entropy_candidate)
        # The fixed-width candidate's size is known analytically; only pay
        # for building it when it actually beats the entropy-coded stream.
        if self._packed_size(symbols) < len(entropy_candidate):
            return b"P" + self._encode_packed(symbols)
        return entropy_candidate

    # -- context-coded (halo) streams ----------------------------------
    def _encode_context_candidate(self, symbols: np.ndarray, context) -> Optional[bytes]:
        """Tag-``C`` candidate: code against the reference-tile histogram.

        Layout: ``C | varint n | varint pool_width | varint n_escapes |
        packed escape values (pool_width bits each) | bit stream``.  The
        canonical code is derived from the context pool plus the escape
        pseudo-symbol on both sides, so no table is stored.
        """

        width = stream_width(symbols)
        pool = context.pool(width)
        if pool is None:
            return None
        esc_symbol = pool.escape_symbol
        syms_c, lens_c, codes_c = pool.code

        in_alphabet = np.isin(symbols, pool.symbols)
        escapes = symbols[~in_alphabet]
        coded = np.where(in_alphabet, symbols, esc_symbol)
        bitstream = huffman_encode_with_code(coded, syms_c, lens_c, codes_c)

        body = Writer(b"C")
        body.varints((symbols.size, width, escapes.size))
        body.extend(self._pack_fixed_width(escapes, width))
        body.extend(bitstream)
        return bytes(body)

    def _decode_context_stream(self, body: Reader, context) -> np.ndarray:
        from repro.encoding.huffman import huffman_decode_with_code

        if context is None:
            raise ValueError("context-coded (halo) stream but no entropy context supplied")
        count = body.varint()
        width = body.varint()
        n_escapes = body.varint()
        pool = context.pool(width)
        if pool is None:
            raise ValueError(f"entropy context has no pool for stream width {width}")
        escapes = BitReader(body.take((n_escapes * width + 7) // 8)).read_bits_array(
            np.full(n_escapes, width, dtype=np.int64)
        ).astype(np.int64)

        syms_c, lens_c, _ = pool.code
        decoded = huffman_decode_with_code(body.take(body.remaining), count, syms_c, lens_c)
        escape_positions = np.flatnonzero(decoded == pool.escape_symbol)
        if escape_positions.size != n_escapes:
            raise ValueError("context stream escape count mismatch")
        if n_escapes:
            decoded = decoded.copy()
            decoded[escape_positions] = escapes
        return decoded

    def decode_symbols(self, blob: bytes, *, context=None) -> np.ndarray:
        """Inverse of :meth:`encode_symbols`.

        ``context`` must be the same :class:`EntropyContext` the encoder
        used whenever the stream carries the ``C`` tag; self-describing
        streams ignore it.
        """

        if not blob:
            raise ValueError("empty lossless payload")
        body = Reader(blob)
        tag = body.take(1)
        if tag == b"C":
            return self._decode_context_stream(body, context)
        if tag == b"R":
            count = body.varint()
            return np.frombuffer(body.take(8 * count), dtype="<i8").astype(np.int64)
        if tag == b"P":
            return self._decode_packed(body)
        if tag == b"Z":
            # The decompressed body is a complete tagged entropy stream
            # (H or D, whichever the encoder picked).
            return self.decode_symbols(zstd_like_decompress(body.take(body.remaining)))
        if tag not in (b"D", b"H"):
            raise ValueError(f"unknown lossless backend tag {tag!r}")
        count = body.varint()
        if tag == b"D":
            symbols = huffman_decode(body.take(body.remaining))
        else:
            values = huffman_decode(body.blob())
            symbols = rle_decode(values, huffman_decode(body.blob()))
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
            extras={"raw_fallback": 1.0},
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
    def compression_ratio(self, field: np.ndarray) -> float:
        """Convenience: compress and return only the compression ratio."""

        return self.compress(field).compression_ratio

    def check_error_bound(
        self, original: np.ndarray, reconstruction: np.ndarray, *, tolerance_factor: float = 1.0 + 1e-9
    ) -> float:
        """Verify the point-wise error bound; returns the max absolute error.

        Raises :class:`ErrorBoundExceededError` when violated (a tiny
        relative slack absorbs floating-point round-off in the check
        itself).
        """

        max_error = float(np.max(np.abs(np.asarray(original) - np.asarray(reconstruction))))
        # Negated <= so a NaN max error (a reconstruction that went
        # non-finite) fails the check instead of slipping past a ``>``.
        if not (max_error <= self.error_bound * tolerance_factor):
            raise ErrorBoundExceededError(
                f"{self.name}: max reconstruction error {max_error:.3e} exceeds "
                f"error bound {self.error_bound:.3e}"
            )
        return max_error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(error_bound={self.error_bound!r})"
