"""Throughput micro-benchmarks of the correlation-statistics substrate.

Times the three statistics the paper relies on (global variogram range,
std of local variogram ranges, std of local SVD truncation levels) on a
128x128 field, plus the variogram range of one 16^3 Miranda-like chunk,
the statistic the store records per chunk (the 3D path).  The paper's
future-work section flags the cost of the SVD statistic relative to
modern compressors; these numbers quantify that observation for the
reproduction.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.stats.local import std_local_variogram_range
from repro.stats.svd import std_local_svd_truncation
from repro.stats.variogram_models import estimate_variogram_range


@pytest.fixture(scope="module")
def bench_field():
    return generate_gaussian_field((128, 128), 12.0, seed=BENCH_SEED)


def test_global_variogram_range_throughput(benchmark, bench_field):
    value = benchmark(estimate_variogram_range, bench_field)
    assert value > 0


def test_chunk_variogram_range_throughput(benchmark):
    chunk = generate_miranda_like_volume((32, 32, 32), seed=BENCH_SEED)[:16, :16, :16]
    value = benchmark(estimate_variogram_range, chunk)
    assert 0 < value <= 10 * 8  # the fit bound: 10x the largest lag, at most 8


def test_local_variogram_std_throughput(benchmark, bench_field):
    value = benchmark(std_local_variogram_range, bench_field, 32)
    assert value >= 0


def test_local_svd_std_throughput(benchmark, bench_field):
    value = benchmark(std_local_svd_truncation, bench_field, 32)
    assert value >= 0
