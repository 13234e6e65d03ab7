"""Huffman helpers the tests build codes and bit streams with.

:func:`huffman_encode_with_code` writes a stream under a pre-agreed
canonical code one symbol at a time; the entropy backend's `C` streams
and ``huffman_decode_with_code`` are checked against it.
:func:`huffman_code_lengths` is a dict view of the encoder's
length-limited code-length build, and :func:`code_lookup` maps each
symbol of a :class:`~repro.encoding.huffman.HuffmanCode` to its codeword.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.encoding.huffman import (
    _LENGTH_LIMIT,
    _MAX_CODE_LENGTH,
    HuffmanCode,
    _code_lengths_array,
    _limit_lengths_array,
)
from tests.reference.bitio import BitWriter


def huffman_code_lengths(
    frequencies: Dict[int, int], *, max_length: int = _LENGTH_LIMIT
) -> Dict[int, int]:
    """``symbol -> code length`` for every symbol of non-zero frequency."""

    items = sorted((s, f) for s, f in frequencies.items() if f > 0)
    if not items:
        return {}
    symbols = np.array([s for s, _ in items], dtype=np.int64)
    lengths = _code_lengths_array(np.array([f for _, f in items], dtype=np.int64))
    lengths = _limit_lengths_array(symbols, lengths, min(max_length, _MAX_CODE_LENGTH))
    return {int(s): int(l) for s, l in zip(symbols, lengths)}


def code_lookup(code: HuffmanCode) -> Dict[int, Tuple[int, int]]:
    """``symbol -> (codeword, length)``."""

    return {s: (c, l) for s, c, l in zip(code.symbols, code.codes, code.lengths)}


def huffman_encode_with_code(
    stream, syms_canonical, lens_canonical, codes_canonical
) -> bytes:
    """Bare bit stream of ``stream`` under a pre-agreed code (no symbol table)."""

    lookup = {
        int(s): (int(c), int(l))
        for s, l, c in zip(syms_canonical, lens_canonical, codes_canonical)
    }
    writer = BitWriter()
    for symbol in np.asarray(stream).ravel().tolist():
        if symbol not in lookup:
            raise ValueError("stream contains symbols outside the agreed code")
        writer.write_bits(*lookup[symbol])
    return writer.getvalue()
