"""Tests for repro.encoding.huffman."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference.bitio import BitWriter
from repro.encoding.huffman import (
    HuffmanCode,
    _canonical_codes_array,
    _decode_scalar,
    _decode_vectorized,
    _pack_codes,
    huffman_decode,
    huffman_encode,
)
from repro.encoding.varint import Writer
from tests.reference.huffman import code_lookup, huffman_code_lengths


class TestCodeLengths:
    def test_empty_frequencies(self):
        assert huffman_code_lengths({}) == {}

    def test_single_symbol_gets_length_one(self):
        assert huffman_code_lengths({5: 100}) == {5: 1}

    def test_two_symbols_get_one_bit_each(self):
        lengths = huffman_code_lengths({0: 5, 1: 5})
        assert lengths == {0: 1, 1: 1}

    def test_rare_symbols_get_longer_codes(self):
        lengths = huffman_code_lengths({0: 1000, 1: 10, 2: 1})
        assert lengths[0] < lengths[2]

    def test_kraft_inequality_holds(self):
        freqs = {i: (i + 1) ** 2 for i in range(20)}
        lengths = huffman_code_lengths(freqs)
        kraft = sum(2.0 ** -l for l in lengths.values())
        assert kraft <= 1.0 + 1e-12

    def test_optimality_against_entropy(self):
        # Average Huffman length is within 1 bit of the entropy.
        rng = np.random.default_rng(0)
        symbols = rng.geometric(0.3, size=5000) - 1
        values, counts = np.unique(symbols, return_counts=True)
        freqs = {int(v): int(c) for v, c in zip(values, counts)}
        lengths = huffman_code_lengths(freqs)
        total = counts.sum()
        probs = counts / total
        entropy = -(probs * np.log2(probs)).sum()
        avg_len = sum(freqs[s] * lengths[s] for s in freqs) / total
        assert entropy <= avg_len <= entropy + 1.0


class TestCanonicalCode:
    def test_codes_are_prefix_free(self):
        lengths = huffman_code_lengths({i: i + 1 for i in range(10)})
        code = HuffmanCode.from_lengths(lengths)
        entries = sorted(zip(code.lengths, code.codes))
        for i, (li, ci) in enumerate(entries):
            for lj, cj in entries[i + 1 :]:
                assert cj >> (lj - li) != ci, "prefix property violated"

    def test_lookup_tables_are_consistent(self):
        lengths = huffman_code_lengths({1: 4, 2: 3, 3: 2, 4: 1})
        code = HuffmanCode.from_lengths(lengths)
        lookup = code_lookup(code)
        assert set(lookup) == set(code.symbols)
        # Invertible: no two symbols share a (codeword, length) pair.
        assert len(set(lookup.values())) == len(lookup)


class TestEncodeDecode:
    def test_empty_stream(self):
        blob = huffman_encode([])
        assert huffman_decode(blob).size == 0

    def test_single_symbol_stream(self):
        blob = huffman_encode([7] * 100)
        decoded = huffman_decode(blob)
        np.testing.assert_array_equal(decoded, np.full(100, 7))

    def test_roundtrip_skewed_distribution(self):
        rng = np.random.default_rng(1)
        symbols = np.abs(rng.geometric(0.2, size=2000) - 1)
        decoded = huffman_decode(huffman_encode(symbols))
        np.testing.assert_array_equal(decoded, symbols)

    def test_compresses_skewed_better_than_uniform(self):
        rng = np.random.default_rng(2)
        skewed = np.zeros(4000, dtype=np.int64)
        skewed[:100] = rng.integers(0, 64, size=100)
        uniform = rng.integers(0, 64, size=4000)
        assert len(huffman_encode(skewed)) < len(huffman_encode(uniform))

    def test_rejects_negative_symbols(self):
        with pytest.raises(ValueError):
            huffman_encode([-1, 2])

    def test_large_alphabet(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 5000, size=3000)
        decoded = huffman_decode(huffman_encode(symbols))
        np.testing.assert_array_equal(decoded, symbols)

    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, symbols):
        decoded = huffman_decode(huffman_encode(symbols))
        np.testing.assert_array_equal(decoded, np.asarray(symbols, dtype=np.int64))


def _forged_long_code_stream() -> bytes:
    """A 64 KiB stream over a code of lengths 21..40 that repeats the
    40-bit codeword: no encoder writes it, and the per-bit scalar decoder
    takes seconds over it."""

    lens = np.arange(21, 41, dtype=np.int64)
    syms = np.arange(lens.size, dtype=np.int64)
    _, _, lens_c, codes_c = _canonical_codes_array(syms, lens)
    n_symbols = 64 * 1024 * 8 // 40
    payload = _pack_codes(np.full(n_symbols, codes_c[-1]), np.full(n_symbols, lens_c[-1]))
    out = Writer()
    out.varints((n_symbols, lens.size))
    out.varints(np.stack([syms, lens], axis=1).ravel().tolist())
    out.blob(payload)
    return bytes(out)


class TestForgedCodeLengths:
    """A header code length above what the encoder writes is rejected
    before decoding.  The containers pinned under ``tests/**/data/`` still
    decode: their golden tests run every one of them through this check."""

    def test_forged_long_codes_fail_fast(self):
        blob = _forged_long_code_stream()
        assert len(blob) > 64 * 1024
        began = time.perf_counter()
        with pytest.raises(ValueError, match="code length"):
            huffman_decode(blob)
        assert time.perf_counter() - began < 0.1

    def test_longest_length_the_encoder_writes_decodes(self):
        # 2**17 + 1 distinct symbols need 18-bit codes, above the 16-bit
        # limit: the bound follows the alphabet size as the encoder does.
        symbols = np.arange((1 << 17) + 1, dtype=np.int64)
        symbols = np.concatenate([symbols, np.zeros(1 << 18, dtype=np.int64)])
        blob = huffman_encode(symbols)
        np.testing.assert_array_equal(huffman_decode(blob), symbols)


def _bit_writer_bytes(codes, lens) -> bytes:
    writer = BitWriter()
    writer.write_bits_array(codes, lens)
    return writer.getvalue()


class TestPackCodes:
    @pytest.mark.parametrize("max_len", [1, 2, 7, 8, 9, 16, 17, 24, 33, 49, 50, 56, 57])
    def test_matches_bit_writer(self, max_len):
        rng = np.random.default_rng(max_len)
        lens = rng.integers(1, max_len + 1, 700).astype(np.int64)
        lens[::50] = max_len
        codes = rng.integers(0, 2**64, lens.size, dtype=np.uint64) >> (64 - lens).astype(np.uint64)
        assert _pack_codes(codes, lens) == _bit_writer_bytes(codes, lens)

    @pytest.mark.parametrize("phase", range(8))
    def test_57_bit_codeword_spans_eight_bytes(self, phase):
        # A 57-bit all-ones codeword at bit phase 7 touches 8 bytes; every
        # phase of it must pack like the bit writer.
        lens = np.array([phase, 57, 3] if phase else [57, 3], dtype=np.int64)
        codes = np.array([0, 2**57 - 1, 5] if phase else [2**57 - 1, 5], dtype=np.uint64)
        assert _pack_codes(codes, lens) == _bit_writer_bytes(codes, lens)


@st.composite
def _canonical_codes(draw):
    """A random prefix code in canonical order, longest codeword 1-20 bits.

    Leaves of a full binary tree are split at random (always deepening one
    path to ``max_len``), so the code is Kraft-complete; dropping leaves
    other than that deepest one makes it incomplete.
    """

    max_len = draw(st.integers(min_value=1, max_value=20))
    depths = [0]
    for _ in range(max_len):
        depth = depths.pop()
        depths += [depth + 1, depth + 1]
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        open_leaves = [i for i, d in enumerate(depths[:-1]) if d < max_len]
        if not open_leaves:
            break
        depth = depths.pop(draw(st.sampled_from(open_leaves)))
        depths[-1:-1] = [depth + 1, depth + 1]
    if not draw(st.booleans()):
        drop = draw(st.sets(st.integers(min_value=0, max_value=len(depths) - 2)))
        depths = [d for i, d in enumerate(depths) if i not in drop]
    symbols = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=len(depths),
            max_size=len(depths),
            unique=True,
        )
    )
    _, syms, lens, codes = _canonical_codes_array(
        np.asarray(symbols, dtype=np.int64), np.asarray(depths, dtype=np.int64)
    )
    return syms, lens, codes


def _outcome(decode):
    try:
        return decode()
    except (EOFError, ValueError) as exc:
        return type(exc)


class TestVectorizedDecoderAgainstScalar:
    """``_decode_vectorized`` must agree with the per-bit reference decoder
    ``_decode_scalar``: equal arrays, or the same exception class."""

    @staticmethod
    def _both(syms, lens, payload, n_symbols):
        code = HuffmanCode.from_lengths({int(s): int(l) for s, l in zip(syms, lens)})
        fast = _outcome(lambda: _decode_vectorized(syms, lens, payload, n_symbols))
        slow = _outcome(lambda: _decode_scalar(code, payload, n_symbols))
        return fast, slow

    @given(_canonical_codes(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_round_trip(self, code, data):
        syms, lens, codes = code
        picks = np.asarray(
            data.draw(st.lists(st.integers(0, syms.size - 1), min_size=1, max_size=150)),
            dtype=np.int64,
        )
        payload = _pack_codes(codes[picks], lens[picks])
        fast, slow = self._both(syms, lens, payload, picks.size)
        np.testing.assert_array_equal(fast, syms[picks])
        np.testing.assert_array_equal(slow, syms[picks])

    @given(_canonical_codes(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_truncated_payloads_agree(self, code, data):
        syms, lens, codes = code
        picks = np.asarray(
            data.draw(st.lists(st.integers(0, syms.size - 1), min_size=1, max_size=150)),
            dtype=np.int64,
        )
        payload = _pack_codes(codes[picks], lens[picks])
        cut = data.draw(st.integers(min_value=0, max_value=len(payload)))
        n_symbols = data.draw(st.integers(min_value=1, max_value=picks.size + 8))
        fast, slow = self._both(syms, lens, payload[:cut], n_symbols)
        if isinstance(slow, type):
            assert fast is slow
        else:
            np.testing.assert_array_equal(fast, slow)

    @given(_canonical_codes(), st.binary(max_size=48), st.integers(1, 120))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_payloads_agree(self, code, payload, n_symbols):
        syms, lens, _ = code
        fast, slow = self._both(syms, lens, payload, n_symbols)
        if isinstance(slow, type):
            assert fast is slow
        else:
            np.testing.assert_array_equal(fast, slow)

    def test_kraft_violation_raises(self):
        syms = np.array([0, 1, 2], dtype=np.int64)
        lens = np.array([1, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="Kraft"):
            _decode_vectorized(syms, lens, b"\x00", 1)

    def test_exhausted_stream_raises_eof(self):
        syms = np.array([0, 1], dtype=np.int64)
        lens = np.array([1, 1], dtype=np.int64)
        with pytest.raises(EOFError):
            _decode_vectorized(syms, lens, b"\x00", 9)

    def test_invalid_prefix_raises_value_error(self):
        # Code {0, 10}: a full "11" window is no codeword.
        syms = np.array([4, 5], dtype=np.int64)
        lens = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="invalid Huffman bit stream"):
            _decode_vectorized(syms, lens, b"\x30", 4)
