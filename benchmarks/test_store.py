"""Benchmarks of the chunked compressed array store.

Covers the subsystem's two headline properties:

* **Random-access partial reads** — reading a corner region decodes only
  the chunks it intersects (asserted via the store's decode counter) and
  beats full-volume decompress-then-slice by a wide margin (>= 5x for a
  32^3 region of a 128^3 volume in 64^3 chunks, where only 1 of 8 chunks
  must be decoded);
* **Per-chunk codec selection** — on a mixed gaussian+miranda corpus the
  ``best`` policy (each chunk keeps its smallest payload among sz, zfp
  and mgard) matches or beats the best single fixed codec's total CR.

The small put/read cells double as the CI smoke test for the store.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED
from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.store import ArrayStore

ERROR_BOUND = 1e-3
TOL = ERROR_BOUND * (1.0 + 1e-9)


@pytest.fixture(scope="module")
def smoke_volume():
    return generate_miranda_like_volume((64, 64, 64), seed=BENCH_SEED)


@pytest.fixture(scope="module")
def large_volume():
    return generate_miranda_like_volume((128, 128, 128), seed=BENCH_SEED + 1)


def test_store_put_smoke(benchmark, tmp_path, smoke_volume):
    """CI smoke: put a 64^3 miranda volume (32^3 chunks), read a corner."""

    def put():
        store = ArrayStore.create(
            tmp_path / "smoke",
            chunk_shape=32,
            error_bound=ERROR_BOUND,
            chunk_stats=False,
            overwrite=True,
        )
        store.write(smoke_volume)
        return store

    store = benchmark.pedantic(put, rounds=1, iterations=1)
    assert store.n_chunks == 8
    corner = store.read((slice(0, 16), slice(0, 16), slice(0, 16)))
    # Only the single intersecting chunk may be decoded.
    assert store.last_read.chunks_intersecting == 1
    assert store.last_read.chunks_decoded == 1
    assert np.abs(corner - smoke_volume[:16, :16, :16]).max() <= TOL
    if benchmark.stats:
        print(
            f"\nstore put 64^3: CR={store.compression_ratio:.2f} "
            f"({store.n_chunks} chunks)"
        )


def test_store_partial_read_speedup(tmp_path, large_volume):
    """Partial 32^3 read of a 128^3 store: 1 of 8 chunks, >= 5x faster.

    The acceptance bar of the subsystem: decoding only the intersecting
    chunks must beat full-volume decompress-then-slice by at least 5x
    (the chunk grid alone predicts ~8x here).
    """

    store = ArrayStore.create(
        tmp_path / "large",
        chunk_shape=64,
        error_bound=ERROR_BOUND,
        chunk_stats=False,
    )
    store.write(large_volume)
    assert store.n_chunks == 8
    region = (slice(0, 32), slice(0, 32), slice(0, 32))

    def timed(fn, rounds=3):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        return result, min(times)

    partial, partial_time = timed(lambda: store.read(region))
    assert store.last_read.chunks_decoded == 1
    assert store.last_read.chunks_intersecting == 1
    full, full_time = timed(lambda: store.read()[region])
    assert store.last_read.chunks_decoded == 8

    np.testing.assert_array_equal(partial, full)
    assert np.abs(partial - large_volume[region]).max() <= TOL
    speedup = full_time / partial_time
    print(
        f"\npartial read 32^3 of 128^3: {partial_time * 1e3:.1f} ms vs "
        f"full-then-slice {full_time * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 5.0, f"partial read only {speedup:.2f}x faster"


def _mixed_corpus():
    """Gaussian planes (smooth, mid, noise-like) + a miranda volume.

    Chosen so no single codec wins everywhere: SZ dominates correlated
    fields while ZFP wins on the uncorrelated one, which is exactly the
    regime per-chunk selection is for.
    """

    return [
        ("gaussian-smooth", generate_gaussian_field((128, 128), 32.0, seed=2021), 64),
        ("gaussian-mid", generate_gaussian_field((128, 128), 8.0, seed=2022), 64),
        ("gaussian-noise", np.random.default_rng(2025).normal(size=(128, 128)), 64),
        ("miranda-volume", generate_miranda_like_volume((64, 64, 64), seed=2026), 32),
    ]


def test_store_best_policy_beats_every_fixed_codec(benchmark, tmp_path):
    """Per-chunk codec choice >= the best single fixed codec.

    ``best`` keeps each chunk's smallest payload among sz, zfp and mgard,
    so every chunk is no larger than under any fixed codec, and the
    corpus total CR matches or beats every fixed policy.
    """

    corpus = _mixed_corpus()
    policies = ("sz", "zfp", "mgard", "best")

    def run(policy):
        original = compressed = 0
        sizes = []
        for name, array, chunk in corpus:
            store = ArrayStore.create(
                tmp_path / f"{policy}-{name}",
                chunk_shape=chunk,
                error_bound=ERROR_BOUND,
                codec=policy,
                chunk_stats=False,
                overwrite=True,
            )
            store.write(array)
            original += store.original_nbytes
            compressed += store.compressed_nbytes
            sizes += [record.nbytes for record in store.chunk_records()]
        return original / compressed, np.array(sizes)

    totals, sizes = {}, {}
    for policy in policies:
        if policy == "best":
            totals[policy], sizes[policy] = benchmark.pedantic(
                lambda: run("best"), rounds=1, iterations=1
            )
        else:
            totals[policy], sizes[policy] = run(policy)

    best_fixed = max(totals[p] for p in ("sz", "zfp", "mgard"))
    print(
        "\nmixed corpus total CR: "
        + ", ".join(f"{p}={totals[p]:.3f}" for p in policies)
    )
    for codec in ("sz", "zfp", "mgard"):
        assert np.all(sizes["best"] <= sizes[codec]), codec
    assert totals["best"] >= best_fixed, (
        f"best {totals['best']:.3f} < best fixed {best_fixed:.3f}"
    )
