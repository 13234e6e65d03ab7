"""Throughput micro-benchmarks of the native 3D volume path.

Times the sz/zfp/mgard volume modes on a 32^3 Miranda-like volume (the
CI smoke cell), the halo-aware tiled pipeline on the same volume (16^3
tiles, so the context-coded ``C`` streams are encoded and decoded) and
the tiled volume pipeline on a 64^3 volume, and asserts the subsystem's
headline property: the native volume pipeline's compression ratio beats
the paper's slice-by-slice procedure at the reference bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED
from repro.compressors.registry import make_compressor
from repro.datasets.miranda import generate_miranda_like_volume
from repro.volumes.pipeline import (
    compress_volume,
    decompress_volume,
    slice_baseline,
)

ERROR_BOUND = 1e-3


@pytest.fixture(scope="module")
def small_volume():
    return generate_miranda_like_volume((32, 32, 32), seed=BENCH_SEED)


@pytest.fixture(scope="module")
def bench_volume():
    return generate_miranda_like_volume((64, 64, 64), seed=BENCH_SEED)


@pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
def test_volume_compress_throughput(benchmark, small_volume, name):
    """32^3 native volume round trip — the CI smoke cell."""

    compressor = make_compressor(name, ERROR_BOUND)
    compressed = benchmark(compressor.compress, small_volume)
    decompressed = compressor.decompress(compressed)
    assert np.abs(decompressed - small_volume).max() <= ERROR_BOUND * (1 + 1e-9)
    mb = small_volume.nbytes / 1e6
    if benchmark.stats:  # absent under --benchmark-disable (CI smoke runs)
        print(
            f"\n{name} 32^3: CR={compressed.compression_ratio:.2f} "
            f"(mean {benchmark.stats['mean'] * 1e3:.1f} ms -> "
            f"{mb / benchmark.stats['mean']:.1f} MB/s)"
        )
    assert compressed.compression_ratio > 1.0


@pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
def test_volume_decompress_throughput(benchmark, small_volume, name):
    compressor = make_compressor(name, ERROR_BOUND)
    compressed = compressor.compress(small_volume)
    decompressed = benchmark(compressor.decompress, compressed)
    assert np.abs(decompressed - small_volume).max() <= ERROR_BOUND * (1 + 1e-9)


HALO_TILE = (16, 16, 16)


@pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
def test_halo_volume_compress_throughput(benchmark, small_volume, name):
    """32^3 halo volume in 16^3 tiles: every tile after the first codes
    its backend streams against a neighbour's entropy context."""

    compressed = benchmark(
        compress_volume, small_volume, name, ERROR_BOUND, tile_shape=HALO_TILE, halo=True
    )
    reconstruction = decompress_volume(compressed)
    assert np.abs(reconstruction - small_volume).max() <= ERROR_BOUND * (1 + 1e-9)
    assert compressed.compression_ratio > 1.0


@pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
def test_halo_volume_decompress_throughput(benchmark, small_volume, name):
    compressed = compress_volume(
        small_volume, name, ERROR_BOUND, tile_shape=HALO_TILE, halo=True
    )
    reconstruction = benchmark(decompress_volume, compressed)
    assert np.abs(reconstruction - small_volume).max() <= ERROR_BOUND * (1 + 1e-9)


def test_tiled_pipeline_beats_slice_baseline(benchmark, bench_volume):
    """The tiled 64^3 pipeline must out-compress the paper's 2D slicing."""

    def run():
        return compress_volume(bench_volume, "sz", ERROR_BOUND, cache=False)

    compressed = benchmark.pedantic(run, rounds=1, iterations=1)
    reconstruction = decompress_volume(compressed)
    assert np.abs(reconstruction - bench_volume).max() <= ERROR_BOUND * (1 + 1e-9)
    baseline = slice_baseline(bench_volume, "sz", ERROR_BOUND)
    if benchmark.stats:
        print(
            f"\nsz 64^3 tiled: CR={compressed.compression_ratio:.2f} "
            f"vs slice baseline {baseline:.2f}"
        )
    assert compressed.compression_ratio > baseline
