"""Figure 1: anatomy of a variogram (nugget, sill, range).

The paper's Figure 1 is an illustrative variogram curve annotated with its
nugget, sill and range.  The benchmark regenerates that curve from a
synthetic Gaussian field with a known correlation range and checks that the
fitted parameters behave as the figure describes: near-zero nugget, sill
close to the field variance, range close to the generative range, and a
curve that rises towards the sill and plateaus.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import BENCH_SEED, GAUSSIAN_SHAPE
from repro.core.figures import figure1_variogram_anatomy

TRUE_RANGE = 16.0


def test_fig1_variogram_anatomy(benchmark):
    result = benchmark.pedantic(
        figure1_variogram_anatomy,
        kwargs=dict(shape=GAUSSIAN_SHAPE, correlation_range=TRUE_RANGE, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )

    fitted = result["fitted"]
    lags = np.asarray(result["lags"])
    values = np.asarray(result["semivariance"])

    print("\n=== Figure 1: variogram anatomy ===")
    print(f"true correlation range : {TRUE_RANGE:.2f}")
    print(f"fitted range           : {fitted.range:.2f}")
    print(f"fitted sill            : {fitted.sill:.4f} (field variance {result['field_variance']:.4f})")
    print(f"fitted nugget          : {fitted.nugget:.4f}")
    print(f"fit RMSE               : {fitted.rmse:.5f}")
    # The squared-exponential model reaches 95% of its sill at range * sqrt(ln 20).
    print(f"effective range (95%)  : {fitted.range * np.sqrt(np.log(20.0)):.2f}")
    sample = np.linspace(0, len(lags) - 1, 8).astype(int)
    print("lag -> semivariance samples:")
    for index in sample:
        print(f"  h={lags[index]:6.2f}  gamma={values[index]:.4f}")

    # Paper-shape checks.
    assert 0.5 * TRUE_RANGE <= fitted.range <= 1.5 * TRUE_RANGE
    assert fitted.nugget <= 0.1 * fitted.sill
    assert abs(fitted.sill - result["field_variance"]) <= 0.5 * result["field_variance"]
    # The curve rises: early lags well below the sill, late lags near it.
    assert values[0] < 0.3 * fitted.sill
    assert values[-1] > 0.6 * fitted.sill
