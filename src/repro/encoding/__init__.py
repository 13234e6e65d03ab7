"""Lossless coding substrate.

The error-bounded lossy compressors reproduced in :mod:`repro.compressors`
all end with a lossless entropy-coding stage (the real SZ uses Huffman +
Zstd, MGARD uses Zlib/Zstd, ZFP uses an embedded bit-plane code).  This
subpackage implements that substrate from scratch:

* :mod:`repro.encoding.varint` -- LEB128-style variable-length integers for
  headers and side channels.
* :mod:`repro.encoding.huffman` -- canonical Huffman coding of integer
  symbol streams (quantization codes).
* :mod:`repro.encoding.rle` -- run-length coding of highly repetitive
  symbol streams (e.g. long runs of "exact prediction" codes).
* :mod:`repro.encoding.lz77` -- a NumPy-vectorized greedy LZ77 match
  finder (array-built prefix chains, chunked match extension, array
  sequence stream), the dictionary-coding half of the Zstd-like backend.
* :mod:`repro.encoding.zstd_like` -- LZ77 followed by Huffman coding of
  literals/lengths/distances; the stand-in for Zstd used as the final
  lossless stage of the SZ-like and MGARD-like compressors.
"""

from repro.encoding.huffman import (
    HuffmanCode,
    huffman_decode,
    huffman_encode,
)
from repro.encoding.lz77 import LZ77Sequences, lz77_compress, lz77_decompress
from repro.encoding.rle import rle_decode, rle_encode
from repro.encoding.varint import encode_varint
from repro.encoding.zstd_like import zstd_like_compress, zstd_like_decompress

__all__ = [
    "HuffmanCode",
    "huffman_encode",
    "huffman_decode",
    "LZ77Sequences",
    "lz77_compress",
    "lz77_decompress",
    "rle_encode",
    "rle_decode",
    "encode_varint",
    "zstd_like_compress",
    "zstd_like_decompress",
]
