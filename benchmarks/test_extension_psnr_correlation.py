"""Extension: reconstruction quality (PSNR) vs correlation structure.

The paper's future-work section asks how correlation structure affects
quality metrics of the reconstructed data such as PSNR.  This benchmark
runs that analysis on the single-range Gaussian workload: PSNR and bit
rate per (compressor, bound) against the global variogram range, plus the
rate-distortion summary per compressor.

Expectations checked:

* at a fixed absolute error bound the PSNR is roughly independent of the
  correlation range for SZ (the bound pins the worst-case error while the
  value range stays ~constant), whereas the *bit rate* drops with the
  range — i.e. correlation buys rate, not distortion;
* the rate-distortion curves are monotone (more bits, better PSNR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from benchmarks.conftest import BENCH_SEED, global_range_config, print_series_table
from repro.core.figures import STATISTIC_KEYS, FigureSeries
from repro.core.pipeline import ExperimentResult, run_experiment
from repro.core.regression import LogRegressionFit, fit_log_regression

#: Metrics of :class:`repro.pressio.metrics.CompressionMetrics` that can be
#: analysed against the correlation statistics.
QUALITY_METRICS = ("psnr", "rmse", "bit_rate", "max_abs_error")


def quality_series_from_result(
    result: ExperimentResult,
    statistic: str,
    metric: str = "psnr",
    *,
    figure: str = "quality",
    compressors: Optional[Sequence[str]] = None,
) -> List[FigureSeries]:
    """Group records into series of a quality metric vs a correlation statistic.

    The returned :class:`repro.core.figures.FigureSeries` reuse the
    ``compression_ratios`` field to carry the metric values (the fitting and
    reporting machinery is metric-agnostic); the ``figure`` label records
    which metric was analysed.
    """

    if statistic not in STATISTIC_KEYS:
        raise ValueError(f"statistic must be one of {STATISTIC_KEYS}, got {statistic!r}")
    if metric not in QUALITY_METRICS:
        raise ValueError(f"metric must be one of {QUALITY_METRICS}, got {metric!r}")
    wanted = list(compressors) if compressors is not None else result.compressors
    series: List[FigureSeries] = []
    for compressor in wanted:
        for bound in result.error_bounds:
            records = result.filter(compressor=compressor, error_bound=bound)
            if not records:
                continue
            x = np.array([r.statistics.as_dict()[statistic] for r in records])
            values = np.array([getattr(r.metrics, metric) for r in records], dtype=np.float64)
            fit: Optional[LogRegressionFit]
            valid = np.isfinite(x) & np.isfinite(values) & (x > 0)
            try:
                fit = fit_log_regression(x[valid], values[valid]) if valid.sum() >= 2 else None
            except ValueError:
                fit = None
            series.append(
                FigureSeries(
                    figure=f"{figure}:{metric}",
                    dataset=result.dataset,
                    statistic=statistic,
                    compressor=compressor,
                    error_bound=bound,
                    x=x,
                    compression_ratios=values,
                    fit=fit,
                )
            )
    return series


@dataclass(frozen=True)
class RateDistortionPoint:
    """One (compressor, bound) cell of the rate-distortion table."""

    compressor: str
    error_bound: float
    mean_bit_rate: float
    mean_psnr: float
    mean_compression_ratio: float
    n_fields: int


def rate_distortion_table(result: ExperimentResult) -> Dict[str, List[RateDistortionPoint]]:
    """Average bit-rate / PSNR / CR per (compressor, bound) across the sweep.

    The per-compressor lists are ordered by increasing bit rate, so each is
    a rate-distortion curve: plotting ``mean_psnr`` against
    ``mean_bit_rate`` reproduces the classical R-D view of the same
    experiments the paper reports as CR only.
    """

    table: Dict[str, List[RateDistortionPoint]] = {}
    for compressor in result.compressors:
        points: List[RateDistortionPoint] = []
        for bound in result.error_bounds:
            records = result.filter(compressor=compressor, error_bound=bound)
            if not records:
                continue
            finite_psnr = [
                r.metrics.psnr for r in records if np.isfinite(r.metrics.psnr)
            ]
            points.append(
                RateDistortionPoint(
                    compressor=compressor,
                    error_bound=bound,
                    mean_bit_rate=float(np.mean([r.metrics.bit_rate for r in records])),
                    mean_psnr=float(np.mean(finite_psnr)) if finite_psnr else float("inf"),
                    mean_compression_ratio=float(
                        np.mean([r.compression_ratio for r in records])
                    ),
                    n_fields=len(records),
                )
            )
        points.sort(key=lambda p: p.mean_bit_rate)
        table[compressor] = points
    return table


def _run(bench_registry):
    result = run_experiment(
        "gaussian-single",
        config=global_range_config(),
        registry=bench_registry,
        seed=BENCH_SEED,
    )
    psnr_series = quality_series_from_result(result, "global_variogram_range", metric="psnr")
    rate_series = quality_series_from_result(
        result, "global_variogram_range", metric="bit_rate"
    )
    return result, psnr_series, rate_series


def test_extension_psnr_correlation(benchmark, bench_registry):
    result, psnr_series, rate_series = benchmark.pedantic(
        _run, args=(bench_registry,), rounds=1, iterations=1
    )

    print_series_table("Extension: PSNR vs global variogram range", psnr_series)
    print_series_table("Extension: bit rate vs global variogram range", rate_series)

    table = rate_distortion_table(result)
    print("\n=== rate-distortion summary (mean over the sweep) ===")
    print(f"{'compressor':>10} {'bound':>8} {'bits/value':>11} {'PSNR (dB)':>10} {'CR':>8}")
    for compressor, points in table.items():
        for point in points:
            print(
                f"{compressor:>10} {point.error_bound:>8.0e} {point.mean_bit_rate:>11.3f} "
                f"{point.mean_psnr:>10.2f} {point.mean_compression_ratio:>8.2f}"
            )

    # Bit rate falls with correlation range for the prediction-based
    # compressors at every bound.
    for series in rate_series:
        if series.compressor in ("sz", "zfp") and series.fit is not None:
            assert series.fit.beta < 0, (series.compressor, series.error_bound)

    # PSNR at a fixed bound varies far less (relatively) than the bit rate.
    for compressor in ("sz", "zfp"):
        psnr = next(
            s for s in psnr_series if s.compressor == compressor and s.error_bound == 1e-3
        )
        rate = next(
            s for s in rate_series if s.compressor == compressor and s.error_bound == 1e-3
        )
        psnr_rel_spread = float(np.ptp(psnr.compression_ratios) / np.mean(psnr.compression_ratios))
        rate_rel_spread = float(np.ptp(rate.compression_ratios) / np.mean(rate.compression_ratios))
        assert psnr_rel_spread < rate_rel_spread

    # Monotone rate-distortion curves.
    for points in table.values():
        psnrs = [p.mean_psnr for p in points]
        assert psnrs == sorted(psnrs)
