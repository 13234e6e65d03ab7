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
from repro.encoding.rle import rle_decode, rle_encode
from repro.encoding.huffman import huffman_decode, huffman_encode
from repro.encoding.varint import decode_varint, encode_varint
from repro.encoding.zstd_like import zstd_like_compress, zstd_like_decompress
from repro.utils.validation import ensure_in

__all__ = [
    "CompressorError",
    "ErrorBoundExceededError",
    "CompressedField",
    "Compressor",
    "LosslessBackend",
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

        body = bytearray()
        body.extend(encode_varint(symbols.size))
        if symbols.size == 0:
            body.extend(encode_varint(0))
            return bytes(body)
        width = max(1, int(symbols.max()).bit_length())
        body.extend(encode_varint(width))
        body.extend(LosslessBackend._pack_fixed_width(symbols, width))
        return bytes(body)

    @staticmethod
    def _decode_packed(body: bytes) -> np.ndarray:
        count, pos = decode_varint(body, 0)
        width, pos = decode_varint(body, pos)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        reader = BitReader(body[pos:])
        return reader.read_bits_array(np.full(count, width, dtype=np.int64)).astype(np.int64)

    #: Run fraction above which run-length coding stops paying: almost every
    #: run has length 1, so the runs stream costs a second Huffman pass (and
    #: a second decode) for no size win — code the symbols directly instead.
    _RLE_RUN_FRACTION = 0.7

    def _encode_huffman_body(self, symbols: np.ndarray, values=None, runs=None) -> bytes:
        if values is None:
            values, runs = rle_encode(symbols)
        body = bytearray()
        values_blob = huffman_encode(values)
        runs_blob = huffman_encode(runs)
        body.extend(encode_varint(symbols.size))
        body.extend(encode_varint(len(values_blob)))
        body.extend(values_blob)
        body.extend(encode_varint(len(runs_blob)))
        body.extend(runs_blob)
        return bytes(body)

    @staticmethod
    def _encode_direct_body(symbols: np.ndarray) -> bytes:
        return bytes(encode_varint(symbols.size)) + huffman_encode(symbols)

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
            return 1 + len(encode_varint(0)) + len(encode_varint(0))
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
            payload = symbols.astype("<i8").tobytes()
            return b"R" + encode_varint(symbols.size) + payload

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

        from repro.encoding.context import stream_width
        from repro.encoding.huffman import huffman_encode_with_code

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

        body = bytearray(b"C")
        body.extend(encode_varint(symbols.size))
        body.extend(encode_varint(width))
        body.extend(encode_varint(int(escapes.size)))
        body.extend(self._pack_fixed_width(escapes, width))
        body.extend(bitstream)
        return bytes(body)

    def _decode_context_stream(self, body: bytes, context) -> np.ndarray:
        from repro.encoding.huffman import huffman_decode_with_code

        if context is None:
            raise ValueError(
                "context-coded (halo) stream but no entropy context supplied"
            )
        count, pos = decode_varint(body, 0)
        width, pos = decode_varint(body, pos)
        n_escapes, pos = decode_varint(body, pos)
        pool = context.pool(width)
        if pool is None:
            raise ValueError(
                f"entropy context has no pool for stream width {width}"
            )
        escape_bytes = (n_escapes * width + 7) // 8
        escapes = np.empty(0, dtype=np.int64)
        if n_escapes:
            reader = BitReader(body[pos : pos + escape_bytes])
            escapes = reader.read_bits_array(
                np.full(n_escapes, width, dtype=np.int64)
            ).astype(np.int64)
        pos += escape_bytes

        esc_symbol = pool.escape_symbol
        syms_c, lens_c, _ = pool.code
        decoded = huffman_decode_with_code(body[pos:], count, syms_c, lens_c)
        escape_positions = np.flatnonzero(decoded == esc_symbol)
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
        tag, body = blob[:1], blob[1:]
        if tag == b"C":
            return self._decode_context_stream(body, context)
        if tag == b"R":
            count, pos = decode_varint(body, 0)
            if len(body) - pos < 8 * count:
                raise EOFError("truncated raw symbol stream")
            return np.frombuffer(body[pos : pos + 8 * count], dtype="<i8").astype(np.int64)
        if tag == b"P":
            return self._decode_packed(body)
        if tag == b"D":
            count, pos = decode_varint(body, 0)
            symbols = huffman_decode(body[pos:])
            if symbols.size != count:
                raise ValueError("lossless payload symbol count mismatch")
            return symbols
        if tag == b"Z":
            # The decompressed body is a complete tagged entropy stream
            # (H or D, whichever the encoder picked).
            return self.decode_symbols(zstd_like_decompress(body))
        if tag != b"H":
            raise ValueError(f"unknown lossless backend tag {tag!r}")
        count, pos = decode_varint(body, 0)
        vlen, pos = decode_varint(body, pos)
        values = huffman_decode(body[pos : pos + vlen])
        pos += vlen
        rlen, pos = decode_varint(body, pos)
        runs = huffman_decode(body[pos : pos + rlen])
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
