"""Cross-stream entropy contexts for halo-aware tiled compression.

When a volume (or chunked store array) is cut into independently coded
tiles, every tile pays its own entropy-coder bootstrap: short symbol
streams cannot amortise a Huffman symbol table, so they degrade to
fixed-width packing — measured on the 64^3 Miranda volume this stream
fragmentation, not lost prediction, is the bulk of the tiled-vs-untiled
compression-ratio gap for all three compressors.

An :class:`EntropyContext` is the fix: it summarises the symbol statistics
of an *already reconstructed* reference tile (its decoded backend streams,
pooled by symbol bit width) so a neighbouring tile can be entropy coded
against those statistics **without storing any table** — the decoder, which
by wavefront ordering has already decoded the reference tile, rebuilds the
exact same context and therefore the exact same canonical code.

Determinism contract
--------------------
Encoder and decoder must derive bit-identical contexts.  Both sides build
the context from the *final symbol arrays of the reference tile's backend
streams* — the encoder from the streams it just wrote, the decoder from the
streams it just decoded (they are identical by construction).  Pooling,
sorting and the escape-frequency rule below are pure functions of those
arrays.

Escape design
-------------
A context pool is a histogram over the reference alphabet.  The current
tile may contain symbols the reference never produced; those are coded as
a reserved ``ESCAPE`` codeword (frequency ``max(1, n_ref // 64)`` — heavy
enough to stay short, light enough not to distort the real code) followed
by the raw symbol value in a fixed-width side channel.  This keeps both
encode and decode fully vectorised: the main bit stream is a pure
canonical-Huffman stream over ``alphabet + {ESCAPE}``, and the escaped
values live in a separate packed array (exactly like the SZ container's
unpredictable-value side channel).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.encoding import huffman

__all__ = ["EntropyContext", "ContextPool", "stream_width"]

#: Escape frequency divisor: the ESCAPE pseudo-symbol is charged
#: ``max(1, n_ref // ESCAPE_FREQUENCY_DIVISOR)`` counts in the code build.
ESCAPE_FREQUENCY_DIVISOR = 64


def stream_width(symbols: np.ndarray) -> int:
    """Pool key of a symbol stream: the bit width of its largest symbol."""

    if symbols.size == 0:
        return 0
    return max(int(symbols.max()).bit_length(), 1)


@dataclass(frozen=True)
class ContextPool:
    """One pooled histogram: the reference symbols of one bit width.

    ``symbols`` is strictly ascending; ``counts`` aligns with it.  The
    escape pseudo-symbol is ``symbols.max() + 1`` with frequency
    :func:`escape_count` — both derived, never stored.
    """

    symbols: np.ndarray  # int64, strictly ascending
    counts: np.ndarray  # int64, > 0, aligned with symbols

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def escape_symbol(self) -> int:
        return int(self.symbols[-1]) + 1

    @property
    def escape_count(self) -> int:
        return max(1, self.total // ESCAPE_FREQUENCY_DIVISOR)

    @cached_property
    def code(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical ``(syms, lens, codes)`` over the pool plus escape,
        built once per pool object and shared by every stream coded on it."""

        return huffman.canonical_code_from_counts(
            np.append(self.symbols, self.escape_symbol),
            np.append(self.counts, self.escape_count),
        )

    @cached_property
    def code_by_symbol(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lens, codes)`` of :attr:`code` in symbol order: aligned with
        ``symbols``, the escape last (it is the largest symbol)."""

        syms, lens, codes = self.code
        order = np.argsort(syms)
        return lens[order], codes[order]

    def __getstate__(self) -> dict:
        # The memoised codes are rebuilt on demand and never ride a pickle.
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in ("code", "code_by_symbol")
        }


class EntropyContext:
    """Per-bit-width pooled symbol statistics of one reference tile."""

    def __init__(self, pools: Dict[int, ContextPool]) -> None:
        self._pools = dict(pools)

    @classmethod
    def from_streams(cls, streams: Iterable[np.ndarray]) -> "EntropyContext":
        """Build the context from a tile's backend symbol streams.

        Streams are pooled by :func:`stream_width`; empty streams
        contribute nothing.  The same call on the encoder's written
        streams and on the decoder's decoded streams yields bit-identical
        pools (the streams themselves are identical).
        """

        by_width: Dict[int, list] = {}
        for stream in streams:
            arr = np.asarray(stream, dtype=np.int64).ravel()
            if arr.size == 0:
                continue
            by_width.setdefault(stream_width(arr), []).append(arr)
        pools: Dict[int, ContextPool] = {}
        for width, arrays in by_width.items():
            merged = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
            symbols, _, counts = huffman._count_symbols(merged)
            pools[width] = ContextPool(
                symbols=symbols.astype(np.int64), counts=counts.astype(np.int64)
            )
        return cls(pools)

    def pool(self, width: int) -> Optional[ContextPool]:
        """The pooled histogram for ``width``, or ``None`` when absent."""

        return self._pools.get(width)

    def digest(self) -> str:
        """Stable content hash (cache keys must distinguish contexts)."""

        h = hashlib.sha1()
        for width in sorted(self._pools):
            pool = self._pools[width]
            h.update(width.to_bytes(4, "little"))
            h.update(np.ascontiguousarray(pool.symbols).tobytes())
            h.update(np.ascontiguousarray(pool.counts).tobytes())
        return h.hexdigest()

    def __bool__(self) -> bool:
        return bool(self._pools)
