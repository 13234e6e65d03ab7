"""Canonical Huffman coding of integer symbol streams.

The SZ-like compressor produces a stream of quantization codes whose
distribution is strongly peaked around the "perfect prediction" code; the
MGARD-like compressor produces quantized multilevel coefficients peaked
around zero.  Huffman coding of those streams is where the compression
ratio is actually realised, so this module is a genuine (if compact)
canonical Huffman implementation:

* code lengths come from a two-queue Huffman tree build over the sorted
  frequency array (O(n) after one argsort, no heap) and are then
  *length-limited* (zlib-style Kraft repair) so every codeword fits the
  decoder's lookup table,
* codes are made *canonical* so the decoder only needs the code lengths,
* a stream is sized before it is packed: :func:`huffman_size_bound`
  bounds its bytes from the symbol counts alone, and
  :func:`huffman_plan` builds the code and gives the exact size plus the
  packing step, so a caller choosing between encodings packs only the
  winner,
* encoding packs per symbol, not per bit (:func:`_pack_codes`): each
  codeword is shifted into a window of at most 8 bytes ending on its
  last bit, and the windows are merged into the output bytes,
* decoding reads the ``max_len``-bit window at every bit position from one
  byte-aligned 32-bit word, maps it to ``(symbol, length)`` through a
  canonical prefix table, and resolves the serial "next codeword starts
  where the previous one ended" chain with pointer doubling.

The encoded container stores the symbol table (symbols + code lengths) with
varints, then the bit stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.encoding.varint import Reader, Writer, encode_varint_array, varint_size

__all__ = [
    "HuffmanCode",
    "huffman_code_lengths",
    "huffman_size_bound",
    "huffman_plan",
    "huffman_encode",
    "huffman_decode",
    "canonical_code_from_counts",
    "huffman_encode_with_code",
    "huffman_decode_with_code",
]

_MAX_CODE_LENGTH = 57  # keeps (code << length) within a 64-bit word during packing
#: Codes are length-limited to this many bits at encode time so the decoder
#: table (2**limit entries) stays small; raised automatically for alphabets
#: too large to fit.
_LENGTH_LIMIT = 16
#: Largest header-declared code length the table-driven decoder accepts;
#: longer (foreign/adversarial) streams fall back to the scalar decoder.
_MAX_TABLE_BITS = 20


def _code_lengths_array(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths for a frequency array (two-queue tree build).

    With the frequencies sorted once, the optimal tree is built with the
    classic two-queue merge — leaves are consumed in sorted order and
    internal nodes are *created* in non-decreasing weight order, so the two
    cheapest nodes are always at one of two queue heads.  O(n) after the
    sort, no heap operations.
    """

    n = counts.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.ones(1, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    weights = counts[order].tolist()
    n_nodes = 2 * n - 1
    parents = [0] * n_nodes
    internal: List[int] = []
    append_internal = internal.append
    leaf = 0
    merged = 0
    n_internal = 0
    for node in range(n, n_nodes):
        if leaf < n and (merged >= n_internal or weights[leaf] <= internal[merged]):
            first = leaf
            total = weights[leaf]
            leaf += 1
        else:
            first = n + merged
            total = internal[merged]
            merged += 1
        if leaf < n and (merged >= n_internal or weights[leaf] <= internal[merged]):
            second = leaf
            total += weights[leaf]
            leaf += 1
        else:
            second = n + merged
            total += internal[merged]
            merged += 1
        parents[first] = node
        parents[second] = node
        append_internal(total)
        n_internal += 1
    # Children always have smaller indices than their parent, so one
    # root-to-leaves sweep yields every depth in O(n).
    depths = [0] * n_nodes
    for node in range(n_nodes - 2, -1, -1):
        depths[node] = depths[parents[node]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = depths[:n]
    return lengths


def _limit_lengths_array(
    symbols: np.ndarray, lengths: np.ndarray, limit: int
) -> np.ndarray:
    """Clamp code lengths to ``limit`` bits and repair the Kraft inequality.

    Standard zlib-style repair: clamping overfull depths can push the Kraft
    sum above 1; demoting the shallowest over-budget leaves one level deeper
    restores it while disturbing the optimal lengths as little as possible.
    """

    n = lengths.size
    if n == 0:
        return lengths
    limit = max(limit, max(1, (n - 1).bit_length()))
    if int(lengths.max()) <= limit:
        return lengths

    counts = np.bincount(np.minimum(lengths, limit), minlength=limit + 1)
    budget = 1 << limit
    kraft = int(sum(int(counts[l]) << (limit - l) for l in range(1, limit + 1)))
    while kraft > budget:
        for l in range(limit - 1, 0, -1):
            if counts[l] > 0:
                counts[l] -= 1
                counts[l + 1] += 1
                kraft -= 1 << (limit - l - 1)
                break
    # Reassign: symbols sorted by (original length, symbol) receive the new
    # lengths in non-decreasing order, so originally-short (frequent)
    # symbols keep the short codes.
    order = np.lexsort((symbols, lengths))
    new_lengths = np.repeat(np.arange(limit + 1), counts)
    out = np.empty(n, dtype=np.int64)
    out[order] = new_lengths
    return out


def _canonical_codes_array(symbols: np.ndarray, lengths: np.ndarray):
    """Canonical codewords from per-symbol lengths, as arrays.

    Returns ``(order, syms, lens, codes)`` with ``syms``/``lens``/``codes``
    in canonical (length, symbol) order and ``order`` the permutation that
    produced them.  Equivalent to :meth:`HuffmanCode.from_lengths` without
    per-symbol Python work: the first code of each length is the standard
    ``(first[l-1] + count[l-1]) << 1`` recurrence (at most ``max_len``
    iterations), and codes within a length are consecutive.
    """

    order = np.lexsort((symbols, lengths))
    syms = symbols[order]
    lens = lengths[order]
    max_len = int(lens[-1])
    bl_count = np.bincount(lens, minlength=max_len + 1)
    first_code = np.zeros(max_len + 1, dtype=np.uint64)
    code = 0
    for l in range(1, max_len + 1):
        code = (code + int(bl_count[l - 1])) << 1
        first_code[l] = code
    starts = (np.cumsum(bl_count) - bl_count).astype(np.uint64)
    codes = first_code[lens] + (np.arange(syms.size, dtype=np.uint64) - starts[lens])
    return order, syms, lens, codes


def huffman_code_lengths(
    frequencies: Dict[int, int], *, max_length: int = _LENGTH_LIMIT
) -> Dict[int, int]:
    """Return the Huffman code length for every symbol with non-zero frequency.

    Lengths are limited to ``max_length`` bits (Kraft-repaired, see
    :func:`_limit_lengths_array`) so the vectorised decoder's prefix table
    stays bounded; the limit is raised automatically when the alphabet is
    too large for it.  A single-symbol alphabet gets length 1 (a degenerate
    but decodable code).  Dict-interface wrapper over the array core used
    by :func:`huffman_encode`.
    """

    items = sorted((s, f) for s, f in frequencies.items() if f > 0)
    if not items:
        return {}
    symbols = np.array([s for s, _ in items], dtype=np.int64)
    counts = np.array([f for _, f in items], dtype=np.int64)
    lengths = _code_lengths_array(counts)
    lengths = _limit_lengths_array(symbols, lengths, min(max_length, _MAX_CODE_LENGTH))
    return {int(s): int(l) for s, l in zip(symbols, lengths)}


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical Huffman code: symbols, lengths, and the codewords."""

    symbols: Tuple[int, ...]
    lengths: Tuple[int, ...]
    codes: Tuple[int, ...]

    @classmethod
    def from_lengths(cls, lengths: Dict[int, int]) -> "HuffmanCode":
        """Build canonical codewords from per-symbol code lengths."""

        # Canonical ordering: by (length, symbol).
        items = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
        symbols = tuple(sym for sym, _ in items)
        lens = tuple(length for _, length in items)
        codes: List[int] = []
        code = 0
        prev_len = 0
        for length in lens:
            code <<= length - prev_len
            codes.append(code)
            code += 1
            prev_len = length
        return cls(symbols=symbols, lengths=lens, codes=tuple(codes))

    def as_lookup(self) -> Dict[int, Tuple[int, int]]:
        """Return ``symbol -> (code, length)``."""

        return {s: (c, l) for s, c, l in zip(self.symbols, self.codes, self.lengths)}


def _count_symbols(arr: np.ndarray):
    """``np.unique(..., return_inverse, return_counts)`` without the sort
    when the value span is narrow enough for a bincount (the common case for
    quantization-code streams)."""

    vmin = int(arr.min())
    span = int(arr.max()) - vmin + 1
    if span > max(1024, 4 * arr.size):
        return np.unique(arr, return_inverse=True, return_counts=True)
    full = np.bincount(arr - vmin, minlength=span)
    present = np.flatnonzero(full)
    slot = np.zeros(span, dtype=np.int64)
    slot[present] = np.arange(present.size)
    return present + vmin, slot[arr - vmin], full[present]


def _pack_codes(codes: np.ndarray, lens: np.ndarray) -> bytes:
    """MSB-first concatenation of each ``codes[i]`` in ``lens[i]`` bits.

    Byte-identical to ``BitWriter.write_bits_array(codes, lens)``.  Each
    codeword is shifted to end on the last bit of its end byte, a window
    of ``k = ceil((max_len + 7) / 8) <= 8`` bytes (codes have at most 57
    bits).  Codewords share no bit, so the OR of the windows ending on one
    byte is a difference of integer prefix sums; byte ``j`` of that
    window lands on output byte ``end - j``.
    """

    ends = np.cumsum(lens)
    n_bytes = (int(ends[-1]) + 7) >> 3
    k = (int(lens.max()) + 14) >> 3
    windows = np.asarray(codes, dtype=np.uint64) << ((-ends) & 7).astype(np.uint64)
    end_byte = (ends - 1) >> 3
    is_tail = np.empty(end_byte.size, dtype=bool)
    is_tail[-1] = True
    np.not_equal(end_byte[1:], end_byte[:-1], out=is_tail[:-1])
    tails = np.flatnonzero(is_tail)
    merged = np.cumsum(windows)[tails]
    merged[1:] -= merged[:-1]
    by_end = np.zeros(n_bytes, dtype="<u8")
    by_end[end_byte[tails]] = merged
    window_bytes = by_end.view(np.uint8).reshape(-1, 8)
    out = window_bytes[:, 0].copy()
    for j in range(1, k):
        out[:-j] |= window_bytes[j:, j]
    return out.tobytes()


def _stream_size(n: int, values: np.ndarray, payload: int) -> int:
    """Bytes of a :func:`huffman_encode` stream of ``n`` symbols over the
    ascending alphabet ``values`` with a ``payload``-byte bit stream.

    Every code length is below 128, so each takes one varint byte of the
    table; each symbol takes one more byte per 7 bits past the first 7.
    """

    table = 2 * values.size
    threshold = 1 << 7
    while values.size and int(values[-1]) >= threshold:
        table += values.size - int(np.searchsorted(values, threshold))
        threshold <<= 7
    return varint_size(n) + varint_size(values.size) + table + varint_size(payload) + payload


def huffman_size_bound(values: np.ndarray, counts: np.ndarray) -> int:
    """A lower bound on ``len(huffman_encode(stream))`` from its histogram alone.

    ``values`` / ``counts`` are the stream's distinct symbols, ascending,
    and their counts.  The header and table are exact, and no prefix code
    beats the entropy, so the payload takes at least
    ``n*H = n*log2(n) - sum(c*log2(c))`` bits.  Its byte count is floored
    and less one byte, so float round-off in ``n*H`` (exact on dyadic
    counts) can never lift the bound above the true size.
    """

    n = int(counts.sum())
    entropy_bits = n * np.log2(n) - float(counts @ np.log2(counts))
    return _stream_size(n, values, max(0, int(entropy_bits // 8) - 1))


def huffman_plan(values: np.ndarray, inverse: np.ndarray, counts: np.ndarray):
    """``(nbytes, pack)`` for a non-empty stream counted by :func:`_count_symbols`
    (ascending distinct ``values``, each symbol's slot ``inverse``, ``counts``).

    The code is built and ``nbytes`` is exactly ``len(pack())``, so a caller
    can weigh the stream against other encodings and pack it only if it wins.
    """

    lengths = _code_lengths_array(counts)
    lengths = _limit_lengths_array(values, lengths, min(_LENGTH_LIMIT, _MAX_CODE_LENGTH))
    order, syms_c, lens_c, codes_c = _canonical_codes_array(values, lengths)
    payload = (int(counts @ lengths) + 7) >> 3

    def pack() -> bytes:
        # Header: symbol count, table size, then (symbol, length) pairs.
        out = Writer()
        out.varints((inverse.size, syms_c.size))
        pairs = np.empty(2 * syms_c.size, dtype=np.int64)
        pairs[0::2] = syms_c
        pairs[1::2] = lens_c
        out.extend(encode_varint_array(pairs))
        # ``inverse`` maps each symbol to its slot in the sorted alphabet and
        # ``rank`` maps slots to canonical order: one gather, no search.
        rank = np.empty(values.size, dtype=np.int64)
        rank[order] = np.arange(values.size)
        index = rank[inverse]
        out.blob(_pack_codes(codes_c[index], lens_c[index]))
        return bytes(out)

    return _stream_size(inverse.size, values, payload), pack


def huffman_encode(symbols: Sequence[int]) -> bytes:
    """Encode a sequence of non-negative integers into a self-describing blob."""

    arr = np.asarray(symbols, dtype=np.int64)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size and arr.min() < 0:
        raise ValueError("huffman_encode requires non-negative symbols")
    if arr.size == 0:
        return b"\x00\x00"  # symbol count 0, table size 0
    _, pack = huffman_plan(*_count_symbols(arr))
    return pack()


def _decode_vectorized(
    syms_canonical: np.ndarray, lens_canonical: np.ndarray, payload: bytes, n_symbols: int
) -> np.ndarray:
    """Table-driven canonical decode without a per-symbol Python loop.

    ``syms_canonical`` / ``lens_canonical`` are the alphabet in canonical
    (length, symbol) order; the canonical codewords themselves are never
    materialised — they tile the prefix space contiguously, so the lookup
    table is a single ``repeat``.
    """

    max_len = int(lens_canonical[-1])
    total_bits = len(payload) * 8

    # Canonical codewords tile the prefix space contiguously (base of the
    # next codeword = base + span of the previous), so the full lookup
    # table is a single repeat; the tail past the Kraft sum is invalid.
    lens = lens_canonical.astype(np.intp)
    spans = np.intp(1) << (max_len - lens)
    if int(spans.sum()) > (1 << max_len):
        raise ValueError("invalid Huffman code lengths (Kraft violation)")
    table_syms = np.repeat(syms_canonical, spans)
    table_lens = np.repeat(lens, spans)
    gap = (1 << max_len) - table_syms.size
    if gap:
        table_syms = np.concatenate([table_syms, np.zeros(gap, dtype=np.int64)])
        table_lens = np.concatenate([table_lens, np.zeros(gap, dtype=np.intp)])

    # Window value of the max_len bits starting at every bit position: the
    # big-endian 32-bit word at each byte offset (zero-padded past the end),
    # shifted right by the bit phase.  max_len <= _MAX_TABLE_BITS = 20, so
    # phase + max_len <= 27 bits always lie inside the word.
    padded = np.frombuffer(bytes(payload) + b"\0\0\0", dtype=np.uint8)
    words = np.ndarray((len(payload),), dtype=">u4", buffer=padded, strides=(1,))
    phase_shifts = 32 - max_len - np.arange(8, dtype=np.intp)
    windows = (words.astype(np.intp)[:, None] >> phase_shifts).ravel()
    windows &= (1 << max_len) - 1

    len_at = table_lens[windows]

    # Jump table: bit position -> bit position of the next codeword; the
    # sentinel (total_bits) absorbs jumps past the end, and invalid
    # prefixes (length 0) self-loop — both are rejected after the chain.
    sentinel = total_bits
    jump = np.empty(total_bits + 1, dtype=np.intp)
    np.add(np.arange(total_bits, dtype=np.intp), len_at, out=jump[:total_bits])
    jump[total_bits] = sentinel
    np.minimum(jump, sentinel, out=jump)

    # Pointer doubling: with the first `filled` codeword positions known and
    # J jumping `filled` codewords at once, one gather doubles the sequence.
    # Composing J costs a full-stream gather, so stop doubling at a modest
    # stride and extend the sequence stride-by-stride instead — the
    # remaining extensions only gather `stride` elements each.
    stride_cap = 256
    seq = np.empty(n_symbols, dtype=np.intp)
    seq[0] = 0
    filled = 1
    J = jump
    jumpby = 1  # invariant: J jumps `jumpby` codewords from any bit position
    while filled < n_symbols:
        take = min(jumpby, n_symbols - filled)
        seq[filled : filled + take] = J[seq[filled - jumpby : filled - jumpby + take]]
        filled += take
        if jumpby < stride_cap and filled >= 2 * jumpby and filled < n_symbols:
            J = J[J]
            jumpby *= 2

    # An invalid prefix self-loops, so the chain ends on the first one; it
    # is a short stream, not a corrupt one, if its window runs past the end.
    last = int(seq[-1])
    last_len = int(len_at[last]) if last < sentinel else 0
    if last_len == 0 and last + max_len <= total_bits:
        raise ValueError("invalid Huffman bit stream")
    if last_len == 0 or last + last_len > total_bits:
        raise EOFError("bit stream exhausted")
    return table_syms[windows[seq]]


def _decode_scalar(code: HuffmanCode, payload: bytes, n_symbols: int) -> np.ndarray:
    """Reference per-symbol decoder (fallback for over-long foreign codes)."""

    out = np.empty(n_symbols, dtype=np.int64)
    lengths_present = sorted(set(code.lengths))
    first_code: Dict[int, int] = {}
    first_index: Dict[int, int] = {}
    count_by_len: Dict[int, int] = {}
    for i, (length, cw) in enumerate(zip(code.lengths, code.codes)):
        if length not in first_code:
            first_code[length] = cw
            first_index[length] = i
        count_by_len[length] = count_by_len.get(length, 0) + 1
    symbols_arr = code.symbols

    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    pos = 0
    total_bits = bits.size
    for i in range(n_symbols):
        current = 0
        current_len = 0
        decoded = False
        for length in lengths_present:
            take = length - current_len
            if pos + take > total_bits:
                raise EOFError("bit stream exhausted")
            for _ in range(take):
                current = (current << 1) | int(bits[pos])
                pos += 1
            current_len = length
            base = first_code[length]
            offset = current - base
            if 0 <= offset < count_by_len[length]:
                out[i] = symbols_arr[first_index[length] + offset]
                decoded = True
                break
        if not decoded:
            raise ValueError("invalid Huffman bit stream")
    return out


def huffman_decode(blob: bytes) -> np.ndarray:
    """Inverse of :func:`huffman_encode`; returns an ``int64`` array."""

    reader = Reader(blob)
    n_symbols = reader.varint()
    if n_symbols == 0:
        return np.empty(0, dtype=np.int64)
    table_size = reader.varint()
    pairs = reader.varints(2 * table_size)
    syms = pairs[0::2].astype(np.int64)
    lens = pairs[1::2].astype(np.int64)
    payload = reader.blob()

    if table_size == 0 or lens.min() < 1:
        raise ValueError("invalid Huffman symbol table")
    order = np.lexsort((syms, lens))
    return _decode_canonical(payload, n_symbols, syms[order], lens[order])


def _decode_canonical(
    payload: bytes, n_symbols: int, syms_canonical: np.ndarray, lens_canonical: np.ndarray
) -> np.ndarray:
    """Decode ``n_symbols`` (> 0) codewords of a code in canonical order."""

    # Every codeword takes at least one bit: a count the payload cannot
    # hold is rejected before anything of its size is allocated.
    if n_symbols > 8 * len(payload):
        raise EOFError("bit stream exhausted")
    if syms_canonical.size == 1:
        # Degenerate single-symbol code: one bit per symbol.
        return np.full(n_symbols, int(syms_canonical[0]), dtype=np.int64)
    if int(lens_canonical[-1]) <= _MAX_TABLE_BITS:
        return _decode_vectorized(syms_canonical, lens_canonical, payload, n_symbols)
    code = HuffmanCode.from_lengths(
        {int(s): int(l) for s, l in zip(syms_canonical, lens_canonical)}
    )
    return _decode_scalar(code, payload, n_symbols)


# ----------------------------------------------------------------------
# coding against an externally agreed (context-derived) canonical code
# ----------------------------------------------------------------------
def canonical_code_from_counts(
    symbols: np.ndarray, counts: np.ndarray, *, max_length: int = _LENGTH_LIMIT
):
    """Canonical code arrays from a frequency table both sides can derive.

    Returns ``(syms_canonical, lens_canonical, codes_canonical)`` in
    canonical (length, symbol) order.  Encoder and decoder of a
    context-coded stream call this with the *same* reference histogram
    (see :mod:`repro.encoding.context`), so no table is ever serialised.
    """

    symbols = np.asarray(symbols, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if symbols.size == 0:
        raise ValueError("cannot build a code from an empty frequency table")
    if symbols.size != counts.size:
        raise ValueError("symbols and counts must align")
    lengths = _code_lengths_array(counts)
    lengths = _limit_lengths_array(
        symbols, lengths, min(max_length, _MAX_CODE_LENGTH)
    )
    _, syms_c, lens_c, codes_c = _canonical_codes_array(symbols, lengths)
    return syms_c, lens_c, codes_c


def huffman_encode_with_code(
    stream: np.ndarray,
    syms_canonical: np.ndarray,
    lens_canonical: np.ndarray,
    codes_canonical: np.ndarray,
) -> bytes:
    """Encode ``stream`` as a bare bit stream using a pre-agreed code.

    Unlike :func:`huffman_encode` no symbol table is written — the decoder
    derives the identical code out of band.  Every stream symbol must be
    in the code's alphabet (callers route out-of-alphabet symbols through
    an escape symbol first).
    """

    stream = np.asarray(stream, dtype=np.int64).ravel()
    if stream.size == 0:
        return b""
    # Map stream symbols to canonical slots via one searchsorted over the
    # symbol-sorted alphabet.
    sym_order = np.argsort(syms_canonical, kind="stable")
    sorted_syms = syms_canonical[sym_order]
    pos = np.searchsorted(sorted_syms, stream)
    if int(pos.max(initial=0)) >= sorted_syms.size or not np.array_equal(
        sorted_syms[pos], stream
    ):
        raise ValueError("stream contains symbols outside the agreed code")
    slots = sym_order[pos]
    return _pack_codes(codes_canonical[slots], lens_canonical[slots])


def huffman_decode_with_code(
    payload: bytes,
    n_symbols: int,
    syms_canonical: np.ndarray,
    lens_canonical: np.ndarray,
) -> np.ndarray:
    """Inverse of :func:`huffman_encode_with_code` (code supplied out of band)."""

    if n_symbols == 0:
        return np.empty(0, dtype=np.int64)
    return _decode_canonical(payload, n_symbols, syms_canonical, lens_canonical)
