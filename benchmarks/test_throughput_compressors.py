"""Throughput micro-benchmarks of the compressor substrate.

These benchmarks time a single compress (and decompress) call per
compressor on a fixed 128x128 Gaussian field, using pytest-benchmark's
repeated timing (they are cheap enough to run multiple rounds).  They are
not a figure of the paper; they document the cost of the reproduction's
pure-NumPy compressors so users can size their own sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED
from repro.compressors.registry import make_compressor
from repro.compressors.zfp import ZFPCompressor
from repro.datasets.gaussian import generate_gaussian_field

ERROR_BOUND = 1e-3


@pytest.fixture(scope="module")
def bench_field():
    return generate_gaussian_field((128, 128), 12.0, seed=BENCH_SEED)


@pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
def test_compress_throughput(benchmark, bench_field, name):
    compressor = make_compressor(name, ERROR_BOUND)
    compressed = benchmark(compressor.compress, bench_field)
    mb = bench_field.nbytes / 1e6
    if benchmark.stats:  # absent under --benchmark-disable (CI smoke runs)
        print(
            f"\n{name}: CR={compressed.compression_ratio:.2f} on {mb:.2f} MB field "
            f"(mean {benchmark.stats['mean'] * 1e3:.1f} ms -> "
            f"{mb / benchmark.stats['mean']:.1f} MB/s)"
        )
    assert compressed.compression_ratio > 1.0


@pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
def test_decompress_throughput(benchmark, bench_field, name):
    compressor = make_compressor(name, ERROR_BOUND)
    compressed = compressor.compress(bench_field)
    decompressed = benchmark(compressor.decompress, compressed)
    assert np.abs(decompressed - bench_field).max() <= ERROR_BOUND * (1 + 1e-9)


def test_zfp_zstd_backend_compress_throughput(benchmark, bench_field):
    """ZFP with the zstd-like lossless backend — the cell the CI smoke job
    watches for both the sequency-partitioned ZFP stream and the vectorized
    LZ77 staying functional and fast."""

    compressor = ZFPCompressor(ERROR_BOUND, backend="zstd")
    compressed = benchmark(compressor.compress, bench_field)
    decompressed = compressor.decompress(compressed)
    assert np.abs(decompressed - bench_field).max() <= ERROR_BOUND * (1 + 1e-9)


def test_zstd_like_roundtrip_throughput(benchmark, bench_field):
    """Round-trip of the zstd-like backend over the reference field's raw
    bytes (the lossless-backend ablation's former long-pole)."""

    from repro.encoding.zstd_like import zstd_like_compress, zstd_like_decompress

    data = bench_field.astype("<f4").tobytes()

    def roundtrip():
        return zstd_like_decompress(zstd_like_compress(data))

    out = benchmark(roundtrip)
    assert out == data
