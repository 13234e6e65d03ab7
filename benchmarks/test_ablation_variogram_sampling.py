"""Ablation: variogram estimator (exact FFT vs pair subsampling).

The library's estimator enumerates all grid-point pairs exactly via
FFT correlations; the classical alternative subsamples random pairs (what
one would do for scattered data, and the cheaper choice for huge grids).
This ablation measures the fitted-range error and the runtime of both
estimators across sampling rates, quantifying the accuracy/cost trade-off
of the estimator behind every figure.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import BENCH_SEED
from repro.datasets.gaussian import generate_gaussian_field
from repro.stats.variogram import EmpiricalVariogram, empirical_variogram
from repro.stats.variogram_models import fit_variogram
from repro.utils.rng import make_rng

TRUE_RANGE = 12.0
PAIR_BUDGETS = (2_000, 20_000, 200_000)


def sampled_pair_variogram(field: np.ndarray, n_pairs: int, seed: int) -> EmpiricalVariogram:
    """Matheron estimate from ``n_pairs`` random point pairs, unit lag bins.

    The estimator one would use on scattered data: pairs at distance 0 or
    beyond half the smallest dimension are dropped, as are empty bins.
    """

    rows, cols = field.shape
    max_lag = min(field.shape) // 2
    rng = make_rng(seed)
    n_points = rows * cols
    n_pairs = int(min(n_pairs, n_points * (n_points - 1) // 2))
    idx_a = rng.integers(0, n_points, size=n_pairs)
    idx_b = rng.integers(0, n_points, size=n_pairs)
    keep = idx_a != idx_b
    (ra, ca), (rb, cb) = np.divmod(idx_a[keep], cols), np.divmod(idx_b[keep], cols)
    dist = np.sqrt((ra - rb) ** 2.0 + (ca - cb) ** 2.0)
    inside = (dist > 0) & (dist <= max_lag)
    dist = dist[inside]
    squares = (field[ra[inside], ca[inside]] - field[rb[inside], cb[inside]]) ** 2
    bins = np.minimum(dist.astype(np.int64), max_lag - 1)
    counts = np.bincount(bins, minlength=max_lag)
    valid = counts > 0
    return EmpiricalVariogram(
        lags=np.bincount(bins, weights=dist, minlength=max_lag)[valid] / counts[valid],
        values=np.bincount(bins, weights=squares, minlength=max_lag)[valid] / (2.0 * counts[valid]),
        pair_counts=counts[valid],
        field_variance=float(field.var()),
    )


def _fit(estimate):
    start = time.perf_counter()
    fitted = fit_variogram(estimate())
    elapsed = time.perf_counter() - start
    return fitted.range, elapsed


def _run():
    field = generate_gaussian_field((128, 128), TRUE_RANGE, seed=BENCH_SEED)
    rows = []
    fft_range, fft_time = _fit(lambda: empirical_variogram(field))
    rows.append(("fft (exact)", fft_range, fft_time))
    for budget in PAIR_BUDGETS:
        est_range, est_time = _fit(lambda: sampled_pair_variogram(field, budget, seed=1))
        rows.append((f"pairs n={budget}", est_range, est_time))
    return rows, fft_range


def test_ablation_variogram_sampling(benchmark):
    rows, fft_range = benchmark.pedantic(_run, rounds=1, iterations=1)

    print("\n=== ablation: variogram estimator (true range %.1f) ===" % TRUE_RANGE)
    print(f"{'estimator':>18} {'fitted range':>13} {'abs error':>10} {'time (s)':>9}")
    for name, fitted_range, elapsed in rows:
        print(
            f"{name:>18} {fitted_range:>13.2f} {abs(fitted_range - TRUE_RANGE):>10.2f} "
            f"{elapsed:>9.4f}"
        )

    # The exact estimator must land near the generative range.
    assert abs(fft_range - TRUE_RANGE) <= 0.5 * TRUE_RANGE
    # Subsampled estimates converge towards the exact one as the pair
    # budget grows.
    pair_errors = [abs(r - fft_range) for name, r, _ in rows if name.startswith("pairs")]
    assert pair_errors[-1] <= pair_errors[0] + 1.0
    # The largest-budget subsample agrees with the exact estimator to
    # within 50%.
    assert pair_errors[-1] <= 0.5 * fft_range
