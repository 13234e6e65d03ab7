"""The lossless backend's one selection rule against a build-everything oracle.

:func:`_reference_encode` builds every candidate stream in full (entropy
stream, fixed-width ``P`` and context-coded ``C``) and keeps the smallest,
ties going to the entropy stream, then ``P``, then ``C``.  The backend
instead sizes every candidate from symbol counts and builds only the
winner; its bytes must equal the oracle's, and its predicted size must be
the length of what it builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.base import LosslessBackend
from repro.encoding import huffman
from repro.encoding.context import EntropyContext, stream_width
from repro.encoding.huffman import (
    _count_symbols,
    huffman_encode,
    huffman_plan,
    huffman_size_bound,
)
from repro.encoding.rle import rle_encode
from repro.encoding.varint import Writer
from repro.encoding.zstd_like import zstd_like_compress
from tests.reference.huffman import huffman_encode_with_code


def _reference_encode(name: str, symbols: np.ndarray, context) -> bytes:
    """Every candidate built in full; the first of the smallest wins."""

    n = symbols.size
    values, runs = rle_encode(symbols)
    entropy = Writer()
    entropy.varint(n)
    if runs.size > 0.7 * n:
        entropy[:0] = b"D"
        entropy.extend(huffman_encode(symbols))
    else:
        entropy[:0] = b"H"
        entropy.blob(huffman_encode(values))
        entropy.blob(huffman_encode(runs))
    entropy = bytes(entropy)
    if name == "zstd":
        entropy = b"Z" + zstd_like_compress(entropy)

    width = stream_width(symbols)
    packed = Writer(b"P")
    packed.varints((n, width))
    packed.extend(LosslessBackend._pack_fixed_width(symbols, width))
    candidates = [entropy, bytes(packed)]

    pool = context.pool(width) if context is not None and n else None
    if pool is not None:
        known = np.isin(symbols, pool.symbols)
        escapes = symbols[~known]
        syms_c, lens_c, codes_c = pool.code
        coded = Writer(b"C")
        coded.varints((n, width, escapes.size))
        coded.extend(LosslessBackend._pack_fixed_width(escapes, width))
        coded.extend(
            huffman_encode_with_code(
                np.where(known, symbols, pool.escape_symbol), syms_c, lens_c, codes_c
            )
        )
        candidates.append(bytes(coded))
    return min(candidates, key=len)


def _streams():
    rng = np.random.default_rng(2025)
    peaked = np.minimum(np.abs(rng.normal(0, 3, 3000)).astype(np.int64), 9)
    with_escapes = np.minimum(np.abs(rng.normal(0, 3, 3000)).astype(np.int64), 9)
    escaped = rng.random(with_escapes.size) < 0.005
    with_escapes[escaped] = rng.integers(12, 16, int(escaped.sum()))
    dyadic = np.repeat(np.arange(4), [512, 256, 128, 128])
    return {
        "peaked": peaked,
        "wide-uniform": rng.integers(0, 4096, 2000).astype(np.int64),
        "long-runs": np.repeat(rng.integers(0, 6, 60), rng.integers(20, 200, 60)),
        "single-symbol": np.full(700, 9, dtype=np.int64),
        "dyadic": dyadic,
        # No two neighbours equal, so D codes it at exactly its entropy.
        "dyadic-interleaved": np.tile([0, 1, 0, 2, 0, 1, 0, 3], 128),
        "escapes": with_escapes,
        "other-width": rng.integers(256, 1024, 900).astype(np.int64),
        # Table symbols of 1 to 9 varint bytes.
        "huge-symbols": np.repeat(2 ** np.arange(0, 63, 7) + 5, np.arange(1, 10)),
        "short": np.array([3, 1, 2], dtype=np.int64),
        "empty": np.empty(0, dtype=np.int64),
    }


STREAMS = _streams()
#: A reference tile's context: pools of widths 4, 3 and 5, so "other-width"
#: (width 10) finds no pool and "escapes" codes its 12-15s as escapes.
CONTEXT = EntropyContext.from_streams(
    [STREAMS["peaked"][:1500], np.array([0, 1, 1, 2, 5, 7, 7]), np.arange(20, 30)]
)


@pytest.mark.parametrize("use_context", [False, True], ids=["plain", "context"])
@pytest.mark.parametrize("name", ["huffman", "zstd"])
@pytest.mark.parametrize("case", sorted(STREAMS))
def test_selection_matches_oracle(case, name, use_context):
    symbols = STREAMS[case]
    context = CONTEXT if use_context else None
    backend = LosslessBackend(name)
    blob = backend.encode_symbols(symbols, context=context)
    assert blob == _reference_encode(name, symbols, context)
    size, build = backend._select(symbols, context)
    assert len(build()) == size == len(blob)
    np.testing.assert_array_equal(backend.decode_symbols(blob, context=context), symbols)


def test_cases_reach_every_tag():
    def tag(case, name, context):
        return LosslessBackend(name).encode_symbols(STREAMS[case], context=context)[:1]

    assert tag("wide-uniform", "huffman", None) == b"P"
    assert tag("long-runs", "huffman", None) == b"H"
    assert tag("peaked", "huffman", None) == b"D"
    assert tag("dyadic-interleaved", "huffman", None) == b"D"
    assert tag("long-runs", "zstd", None) == b"Z"
    assert tag("escapes", "huffman", CONTEXT) == b"C"
    assert tag("other-width", "huffman", CONTEXT) != b"C"


@pytest.mark.parametrize("case", sorted(set(STREAMS) - {"empty"}))
def test_size_bound_never_exceeds_exact_size(case):
    values, inverse, counts = _count_symbols(STREAMS[case])
    size, pack = huffman_plan(values, inverse, counts)
    assert huffman_size_bound(values, counts) <= size == len(pack())
    assert pack() == huffman_encode(STREAMS[case])


@pytest.mark.parametrize("use_context", [False, True], ids=["plain", "context"])
@pytest.mark.parametrize("case", sorted(STREAMS))
def test_huffman_backend_packs_only_the_winner(case, use_context, monkeypatch):
    """One call packs the bit streams of the winning candidate and no other."""

    context = CONTEXT if use_context else None
    packed = []
    pack = huffman._pack_codes
    monkeypatch.setattr(huffman, "_pack_codes", lambda *a: packed.append(1) or pack(*a))
    blob = LosslessBackend("huffman").encode_symbols(STREAMS[case], context=context)
    assert len(packed) == {b"H": 2, b"D": 1, b"C": 1, b"P": 0}[blob[:1]]


def test_losing_huffman_candidate_builds_no_code(monkeypatch):
    """Where ``C`` or ``P`` wins on the entropy bound, no code is built."""

    for width in CONTEXT._pools:
        CONTEXT.pool(width).code_by_symbol  # the shared pool codes are built up front
    builds = []
    lengths = huffman._code_lengths_array
    monkeypatch.setattr(
        huffman, "_code_lengths_array", lambda counts: builds.append(1) or lengths(counts)
    )
    backend = LosslessBackend("huffman")
    assert backend.encode_symbols(STREAMS["wide-uniform"])[:1] == b"P"
    assert backend.encode_symbols(STREAMS["escapes"], context=CONTEXT)[:1] == b"C"
    assert builds == []
