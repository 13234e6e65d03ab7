"""Zstd-like lossless backend: LZ77 dictionary coding + Huffman entropy coding.

The real SZ and MGARD hand their quantized streams to Zstd (or Zlib).  This
module provides a from-scratch stand-in with the same two stages:

1. :func:`repro.encoding.lz77.lz77_compress` finds back-references with the
   vectorized match finder and returns an *array* sequence stream,
2. the per-sequence arrays (literal run lengths, match lengths, split
   distance bytes) and the literal bytes are each entropy coded with the
   canonical Huffman coder — five array encodes, no per-token Python loop.

The container layout is::

    varint  n_sequences
    varint  n_literals            # all literal bytes incl. the trailing run
    blob    Huffman(literal_lengths)
    blob    Huffman(match_lengths - MIN_MATCH)
    blob    Huffman(distances >> 8)
    blob    Huffman(distances & 0xFF)
    blob    Huffman(literals)

Decoding rebuilds the :class:`repro.encoding.lz77.LZ77Sequences` arrays and
hands them to :func:`repro.encoding.lz77.lz77_decompress`, which validates
every token field before producing output.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.huffman import huffman_decode, huffman_encode
from repro.encoding.lz77 import _MIN_MATCH, LZ77Sequences, lz77_compress, lz77_decompress
from repro.encoding.varint import Reader, Writer

__all__ = ["zstd_like_compress", "zstd_like_decompress"]


def zstd_like_compress(data: bytes) -> bytes:
    """Compress a byte string with the LZ77+Huffman pipeline."""

    seqs = lz77_compress(bytes(data))
    out = Writer()
    out.varints((seqs.n_sequences, seqs.literals.size))
    out.blob(huffman_encode(seqs.literal_lengths))
    out.blob(huffman_encode(seqs.match_lengths - _MIN_MATCH))
    out.blob(huffman_encode(seqs.distances >> 8))
    out.blob(huffman_encode(seqs.distances & 0xFF))
    out.blob(huffman_encode(seqs.literals))
    return bytes(out)


def zstd_like_decompress(blob: bytes) -> bytes:
    """Inverse of :func:`zstd_like_compress`."""

    reader = Reader(blob)
    n_sequences = reader.varint()
    n_literals = reader.varint()
    streams = [reader.blob() for _ in range(5)]
    literal_lengths, match_codes, dist_high, dist_low, literals = map(huffman_decode, streams)
    match_lengths = match_codes + _MIN_MATCH

    if not (
        literal_lengths.size == n_sequences
        and match_lengths.size == n_sequences
        and dist_high.size == n_sequences
        and dist_low.size == n_sequences
    ):
        raise ValueError("sequence count mismatch in zstd-like container")
    if literals.size != n_literals:
        raise ValueError("literal count mismatch in zstd-like container")
    if literals.size and (int(literals.min()) < 0 or int(literals.max()) > 0xFF):
        raise ValueError("literal symbols outside byte range in zstd-like container")

    seqs = LZ77Sequences(
        literals=literals.astype(np.uint8),
        literal_lengths=literal_lengths,
        match_lengths=match_lengths,
        distances=(dist_high << 8) | dist_low,
    )
    return lz77_decompress(seqs)
