"""Tests for the entropy-context layer (repro.encoding.context + the
lossless backend's context-coded ``C`` streams)."""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.compressors.base import LosslessBackend
from repro.datasets.miranda import generate_miranda_like_volume
from repro.encoding import huffman
from repro.encoding.context import EntropyContext, stream_width
from repro.encoding.huffman import (
    canonical_code_from_counts,
    huffman_decode_with_code,
)
from tests.reference.huffman import huffman_encode_with_code


def _peaked(rng, n, scale=3, outlier_rate=0.01, outlier_span=(500, 4000)):
    """Peaked stream with rare large outliers — the shape where a
    table-free context code beats both packing and self-coded Huffman."""

    base = np.abs(rng.normal(0, scale, n)).astype(np.int64)
    outliers = rng.random(n) < outlier_rate
    base[outliers] += rng.integers(*outlier_span, int(outliers.sum()))
    return base


class TestEntropyContext:
    def test_pools_by_width(self):
        context = EntropyContext.from_streams(
            [np.array([1, 2, 3]), np.array([100, 200]), np.array([2, 2])]
        )
        assert sorted(context._pools) == [2, 8]
        pool = context.pool(2)
        assert pool is not None
        assert pool.symbols.tolist() == [1, 2, 3]
        assert pool.counts.tolist() == [1, 3, 1]
        assert context.pool(5) is None

    def test_empty_streams_ignored(self):
        context = EntropyContext.from_streams([np.empty(0, dtype=np.int64)])
        assert not context
        assert not context._pools

    def test_stream_width(self):
        assert stream_width(np.empty(0, dtype=np.int64)) == 0
        assert stream_width(np.array([0])) == 1
        assert stream_width(np.array([255])) == 8
        assert stream_width(np.array([256])) == 9

    def test_digest_distinguishes_contents(self):
        a = EntropyContext.from_streams([np.array([1, 2, 3])])
        b = EntropyContext.from_streams([np.array([1, 2, 4])])
        c = EntropyContext.from_streams([np.array([1, 2, 3])])
        assert a.digest() == c.digest()
        assert a.digest() != b.digest()

    def test_escape_parameters(self):
        pool = EntropyContext.from_streams([np.full(1000, 7)]).pool(3)
        assert pool.escape_symbol == 8
        assert pool.escape_count == 1000 // 64


class TestHuffmanWithCode:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        symbols = np.arange(20, dtype=np.int64)
        counts = rng.integers(1, 100, 20).astype(np.int64)
        syms_c, lens_c, codes_c = canonical_code_from_counts(symbols, counts)
        stream = rng.integers(0, 20, 500).astype(np.int64)
        payload = huffman_encode_with_code(stream, syms_c, lens_c, codes_c)
        decoded = huffman_decode_with_code(payload, stream.size, syms_c, lens_c)
        assert np.array_equal(decoded, stream)

    def test_single_symbol_code(self):
        syms_c, lens_c, codes_c = canonical_code_from_counts(
            np.array([5]), np.array([10])
        )
        stream = np.full(17, 5, dtype=np.int64)
        payload = huffman_encode_with_code(stream, syms_c, lens_c, codes_c)
        decoded = huffman_decode_with_code(payload, 17, syms_c, lens_c)
        assert np.array_equal(decoded, stream)

    def test_out_of_alphabet_symbol_rejected(self):
        syms_c, lens_c, codes_c = canonical_code_from_counts(
            np.array([1, 2]), np.array([3, 4])
        )
        with pytest.raises(ValueError, match="outside the agreed code"):
            huffman_encode_with_code(np.array([1, 7]), syms_c, lens_c, codes_c)

    def test_empty_frequency_table_rejected(self):
        with pytest.raises(ValueError):
            canonical_code_from_counts(np.empty(0), np.empty(0))


class TestContextStreams:
    def test_context_candidate_wins_and_round_trips(self):
        rng = np.random.default_rng(1)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        stream = _peaked(rng, 1500)
        plain = backend.encode_symbols(stream)
        coded = backend.encode_symbols(stream, context=context)
        assert coded[:1] == b"C"
        assert len(coded) < len(plain)
        assert np.array_equal(
            backend.decode_symbols(coded, context=context), stream
        )

    def test_context_never_hurts(self):
        rng = np.random.default_rng(2)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([rng.integers(0, 4, 100)])
        for stream in (
            rng.integers(0, 1 << 14, 4000),  # mismatched stats
            np.zeros(100, dtype=np.int64),
            rng.poisson(2, 500).astype(np.int64),
        ):
            plain = backend.encode_symbols(stream)
            coded = backend.encode_symbols(stream, context=context)
            assert len(coded) <= len(plain)
            assert np.array_equal(
                backend.decode_symbols(coded, context=context), stream
            )

    def test_context_none_is_bit_identical(self):
        rng = np.random.default_rng(3)
        backend = LosslessBackend("huffman")
        for stream in (
            rng.poisson(8, 3000).astype(np.int64),
            _peaked(rng, 2000),
            np.empty(0, dtype=np.int64),
        ):
            assert backend.encode_symbols(stream) == backend.encode_symbols(
                stream, context=None
            )

    def test_escapes_round_trip(self):
        rng = np.random.default_rng(4)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 40000)])
        stream = _peaked(rng, 1000)
        stream[::37] += 1  # force symbols the reference never saw
        coded = backend.encode_symbols(stream, context=context)
        assert np.array_equal(
            backend.decode_symbols(coded, context=context), stream
        )

    def test_decode_without_context_raises(self):
        rng = np.random.default_rng(5)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        coded = backend.encode_symbols(_peaked(rng, 1500), context=context)
        assert coded[:1] == b"C"
        with pytest.raises(ValueError, match="entropy context"):
            backend.decode_symbols(coded)

    def test_decode_with_wrong_width_pool_raises(self):
        rng = np.random.default_rng(6)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        coded = backend.encode_symbols(_peaked(rng, 1500), context=context)
        assert coded[:1] == b"C"
        narrow = EntropyContext.from_streams([np.array([0, 1, 1])])
        with pytest.raises(ValueError, match="no pool"):
            backend.decode_symbols(coded, context=narrow)

    def test_zstd_backend_supports_context(self):
        rng = np.random.default_rng(7)
        backend = LosslessBackend("zstd")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        stream = _peaked(rng, 1500)
        coded = backend.encode_symbols(stream, context=context)
        assert np.array_equal(
            backend.decode_symbols(coded, context=context), stream
        )

    def test_raw_backend_ignores_context(self):
        rng = np.random.default_rng(8)
        backend = LosslessBackend("raw")
        context = EntropyContext.from_streams([_peaked(rng, 10000)])
        stream = _peaked(rng, 200)
        assert backend.encode_symbols(stream, context=context) == (
            backend.encode_symbols(stream)
        )


def _counting_code_builds(monkeypatch):
    """Record the frequency table of every canonical-code build."""

    builds = []
    build = huffman.canonical_code_from_counts

    def counting(symbols, counts, **kwargs):
        builds.append((np.asarray(symbols).tobytes(), np.asarray(counts).tobytes()))
        return build(symbols, counts, **kwargs)

    monkeypatch.setattr(huffman, "canonical_code_from_counts", counting)
    return builds


class TestPoolCodeMemo:
    def test_code_built_once_per_pool(self, monkeypatch):
        builds = _counting_code_builds(monkeypatch)
        rng = np.random.default_rng(9)
        backend = LosslessBackend("huffman")
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        streams = [_peaked(rng, 1500) for _ in range(4)]
        coded = [backend.encode_symbols(s, context=context) for s in streams]
        assert all(blob[:1] == b"C" for blob in coded)
        for blob, stream in zip(coded, streams):
            assert np.array_equal(backend.decode_symbols(blob, context=context), stream)
        assert len(builds) == 1

    def test_pickle_is_unchanged_by_use(self):
        rng = np.random.default_rng(10)
        context = EntropyContext.from_streams([_peaked(rng, 50000)])
        before = pickle.dumps(context)
        backend = LosslessBackend("huffman")
        stream = _peaked(rng, 1500)
        coded = backend.encode_symbols(stream, context=context)
        assert coded[:1] == b"C"
        assert pickle.dumps(context) == before
        # The round-tripped context rebuilds the same code on demand.
        clone = pickle.loads(before)
        assert np.array_equal(backend.decode_symbols(coded, context=clone), stream)

    def test_halo_volume_builds_each_pool_code_at_most_once(self, monkeypatch):
        from repro.volumes.pipeline import compress_volume, decompress_volume

        contexts = []
        from_streams = EntropyContext.from_streams.__func__

        def recording(cls, streams):
            context = from_streams(cls, streams)
            contexts.append(context)
            return context

        monkeypatch.setattr(EntropyContext, "from_streams", classmethod(recording))
        builds = _counting_code_builds(monkeypatch)
        volume = generate_miranda_like_volume((64, 64, 64), seed=3)
        compressed = compress_volume(
            volume, "zfp", 1e-3, tile_shape=(32, 32, 32), halo=True
        )
        decompress_volume(compressed)

        pools = Counter()
        for context in contexts:
            for width in sorted(context._pools):
                pool = context.pool(width)
                pools[
                    (
                        np.append(pool.symbols, pool.escape_symbol).tobytes(),
                        np.append(pool.counts, pool.escape_count).tobytes(),
                    )
                ] += 1
        assert builds
        for table, calls in Counter(builds).items():
            assert calls <= pools[table]
