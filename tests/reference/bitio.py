"""MSB-first bit I/O, one field at a time: the reference bit order.

The codecs' own packers (``huffman._pack_codes`` and the lossless
backend's fixed-width pack/unpack) are vectorised; the tests compare
their bytes with these plain loops.
"""

from __future__ import annotations

import numpy as np


class BitWriter:
    """Accumulates bits, most significant first, into bytes."""

    def __init__(self) -> None:
        self._value = 0
        self.bit_length = 0

    def write_bits(self, value: int, count: int) -> None:
        """Append the ``count`` low bits of ``value``."""

        if count < 0 or value < 0 or value >> count:
            raise ValueError(f"value {value} does not fit in {count} bits")
        self._value = (self._value << count) | value
        self.bit_length += count

    def write_bits_array(self, values, counts) -> None:
        """:meth:`write_bits` for every ``(value, count)`` pair in order."""

        values = np.asarray(values).ravel()
        counts = np.broadcast_to(np.asarray(counts), values.shape)
        for value, count in zip(values.tolist(), counts.tolist()):
            self.write_bits(int(value), int(count))

    def getvalue(self) -> bytes:
        """The bits written so far, the last byte zero-padded."""

        pad = -self.bit_length % 8
        return (self._value << pad).to_bytes((self.bit_length + pad) // 8, "big")


class BitReader:
    """Reads bits, most significant first, from bytes."""

    def __init__(self, data: bytes) -> None:
        self._bits = "".join(f"{byte:08b}" for byte in data)
        self._pos = 0

    def read_bits(self, count: int) -> int:
        """The next ``count`` bits as an unsigned integer."""

        if count < 0:
            raise ValueError("count must be >= 0")
        if self._pos + count > len(self._bits):
            raise EOFError("bit stream exhausted")
        field = self._bits[self._pos:self._pos + count]
        self._pos += count
        return int(field, 2) if field else 0

    def read_bits_array(self, counts) -> np.ndarray:
        """:meth:`read_bits` for every count in order, as ``uint64``."""

        counts = np.asarray(counts).ravel().tolist()
        return np.array([self.read_bits(int(c)) for c in counts], dtype=np.uint64)
