"""repro — reproduction of "Exploring Lossy Compressibility through
Statistical Correlations of Scientific Datasets" (Krasowska et al., SC 2021).

The library is organised as the paper's system is:

* :mod:`repro.datasets` — synthetic 2D Gaussian random fields with
  controllable (single / multi) correlation ranges and a Miranda-like
  hydrodynamics surrogate.
* :mod:`repro.compressors` — from-scratch SZ-like, ZFP-like and MGARD-like
  error-bounded lossy compressors with their lossless coding substrate in
  :mod:`repro.encoding`.
* :mod:`repro.pressio` — the sweep's one-call compress + measure path,
  the relative-to-absolute bound rule and the quality metrics.
* :mod:`repro.stats` — variogram estimation and fitting, windowed local
  statistics, local SVD truncation levels, entropy.
* :mod:`repro.core` — the analysis layer: experiment sweeps, logarithmic
  regressions CR = alpha + beta*log(statistic), figure drivers and the
  compression-ratio predictor extension.
* :mod:`repro.baselines` — related-work comparators (block-sampling CR
  estimation, entropy-based adaptive SZ/ZFP selection).

Quick start::

    import numpy as np
    from repro.datasets import generate_gaussian_field
    from repro.pressio import compress_and_measure
    from repro.stats import estimate_variogram_range

    field = generate_gaussian_field((128, 128), correlation_range=16.0, seed=0)
    a = estimate_variogram_range(field)
    compressed, metrics = compress_and_measure(field, "sz", error_bound=1e-3)
    print(a, metrics.compression_ratio)
"""

from repro.version import __version__

__all__ = ["__version__"]
