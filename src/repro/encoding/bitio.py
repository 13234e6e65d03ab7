"""General bit-level I/O: the reference bit order of the entropy coders.

The writer accumulates bits most-significant-first into a Python
``bytearray``; the reader consumes them in the same order.  Both support
bulk operations on NumPy arrays of per-symbol codes
(:meth:`BitWriter.write_bits_array` / :meth:`BitReader.read_bits_array`);
the bulk forms produce bit-identical streams to their scalar
counterparts applied element-wise.  The codecs' own packers
(``huffman._pack_codes`` and the lossless backend's fixed-width
pack/unpack) are specialised and are tested against these.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits (MSB first) into a byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accum = 0
        self._nbits = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""

        self.write_bits(int(bit) & 1, 1)

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value`` (most significant bit first)."""

        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return
        if value < 0:
            raise ValueError("value must be non-negative; encode sign separately")
        if value >> count:
            raise ValueError(f"value {value} does not fit in {count} bits")
        self._accum = (self._accum << count) | value
        self._nbits += count
        while self._nbits >= 8:
            self._nbits -= 8
            self._buffer.append((self._accum >> self._nbits) & 0xFF)
        # Keep only the residual bits to avoid unbounded growth of _accum.
        self._accum &= (1 << self._nbits) - 1

    def write_bits_array(self, values: np.ndarray, counts) -> None:
        """Append many ``(value, count)`` fields in one vectorized pass.

        ``counts`` may be a scalar (fixed-width packing) or an array of
        per-value widths; the resulting bit stream is identical to calling
        :meth:`write_bits` for every pair in order.
        """

        raw = np.asarray(values)
        if raw.dtype.kind == "i" and raw.size and int(raw.min()) < 0:
            raise ValueError("values must be non-negative; encode sign separately")
        values = raw.astype(np.uint64).ravel()
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), values.shape)
        if values.size == 0:
            return
        if counts.min() < 0 or counts.max() > 64:
            raise ValueError("counts must be in [0, 64]")
        checkable = (counts > 0) & (counts < 64)
        if np.any(values[checkable] >> counts[checkable].astype(np.uint64)):
            raise ValueError("a value does not fit in its bit count")

        total = int(counts.sum())
        if total == 0:
            return
        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        rep_values = np.repeat(values, counts)
        rep_shifts = (np.repeat(counts, counts) - 1 - within).astype(np.uint64)
        bits = ((rep_values >> rep_shifts) & np.uint64(1)).astype(np.uint8)

        # Prepend the writer's pending sub-byte bits so one packbits emits
        # whole bytes; the remainder goes back into the accumulator.
        if self._nbits:
            pending = (
                (np.uint64(self._accum) >> np.arange(self._nbits - 1, -1, -1, dtype=np.uint64))
                & np.uint64(1)
            ).astype(np.uint8)
            bits = np.concatenate([pending, bits])
        n_whole = bits.size // 8
        if n_whole:
            self._buffer.extend(np.packbits(bits[: n_whole * 8]).tobytes())
        tail = bits[n_whole * 8 :]
        self._nbits = int(tail.size)
        self._accum = int(tail @ (1 << np.arange(tail.size - 1, -1, -1))) if tail.size else 0

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""

        return len(self._buffer) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Return the written bits as bytes, zero-padding the final byte."""

        out = bytearray(self._buffer)
        if self._nbits:
            out.append((self._accum << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    """Reads bits (MSB first) from a byte buffer produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0  # bit position

    def read_bit(self) -> int:
        """Read a single bit; raises ``EOFError`` past the end of the buffer."""

        if self._pos >= len(self._data) * 8:
            raise EOFError("bit stream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits as an unsigned integer (MSB first)."""

        if count < 0:
            raise ValueError("count must be >= 0")
        value = 0
        remaining = count
        while remaining:
            if self._pos >= len(self._data) * 8:
                raise EOFError("bit stream exhausted")
            byte_index = self._pos >> 3
            bit_offset = self._pos & 7
            available = 8 - bit_offset
            take = min(available, remaining)
            byte = self._data[byte_index]
            chunk = (byte >> (available - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            self._pos += take
            remaining -= take
        return value

    def read_bits_array(self, counts) -> np.ndarray:
        """Read many bit fields at once; inverse of ``write_bits_array``.

        ``counts`` is an array of per-field widths (0 yields 0).  Returns a
        uint64 array and advances the bit position by ``counts.sum()``.
        """

        counts = np.asarray(counts, dtype=np.int64).ravel()
        if counts.size == 0:
            return np.empty(0, dtype=np.uint64)
        if counts.min() < 0 or counts.max() > 64:
            raise ValueError("counts must be in [0, 64]")
        total = int(counts.sum())
        if self._pos + total > len(self._data) * 8:
            raise EOFError("bit stream exhausted")

        start_byte = self._pos >> 3
        end_byte = (self._pos + total + 7) >> 3
        window = np.frombuffer(self._data, dtype=np.uint8, count=end_byte - start_byte, offset=start_byte)
        bits = np.unpackbits(window)[self._pos - start_byte * 8 :][:total]

        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        weights = np.uint64(1) << (np.repeat(counts, counts) - 1 - within).astype(np.uint64)
        contributions = bits.astype(np.uint64) * weights
        out = np.zeros(counts.size, dtype=np.uint64)
        nonzero = counts > 0
        if total:
            out[nonzero] = np.add.reduceat(contributions, starts[nonzero])
        self._pos += total
        return out
