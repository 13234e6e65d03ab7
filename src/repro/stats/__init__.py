"""Correlation statistics of 2D fields and 3D volumes.

This subpackage implements the statistical toolbox the paper uses to
characterise correlation structure:

* :mod:`repro.stats.variogram` -- empirical isotropic semi-variogram
  (Matheron estimator, paper Eq. 1) of a 2D field or 3D volume, or of a
  stack of equal-shape ones, by exact FFT pair enumeration or (2D only)
  random pair subsampling.
* :mod:`repro.stats.variogram_models` -- parametric variogram models
  (squared-exponential as in the paper, plus exponential/spherical) and
  the weighted least-squares fit (closed-form sill, 1-D range search)
  that estimates the variogram *range*, one field or a stack at a time.
* :mod:`repro.stats.windows` -- tiling of a field into HxH windows.
* :mod:`repro.stats.local` -- local (windowed) variogram ranges and their
  standard deviation ("Std of estimated local variogram range (H=32)"),
  over HxH squares or HxHxH cubes.
* :mod:`repro.stats.variogram3d` -- directional variograms, the anisotropy
  ratio and the volume-only variogram range.
* :mod:`repro.stats.svd` -- local SVD truncation levels (number of singular
  modes capturing 99% of variance) and their standard deviation.
* :mod:`repro.stats.entropy` -- Shannon entropy of quantized fields (the
  classical lossless compressibility bound, used by the baselines).
* :mod:`repro.stats.correlation` -- autocorrelation-function based
  correlation length estimators (an independent cross-check of the
  variogram range).
"""

from repro.stats.variogram import (
    EmpiricalVariogram,
    VariogramConfig,
    empirical_variogram,
)
from repro.stats.variogram_models import (
    FittedVariogram,
    VariogramModel,
    exponential_variogram,
    fit_variogram,
    gaussian_variogram,
    spherical_variogram,
    estimate_variogram_range,
    variogram_ranges,
)
from repro.stats.windows import field_windows, window_grid_shape
from repro.stats.local import (
    LocalVariogramResult,
    local_variogram_ranges,
    std_local_variogram_range,
)
from repro.stats.svd import (
    LocalSVDResult,
    local_svd_truncation_levels,
    std_local_svd_truncation,
    svd_truncation_level,
)
from repro.stats.entropy import quantized_entropy, shannon_entropy
from repro.stats.correlation import acf_correlation_length, autocorrelation_1d
from repro.stats.wavelet import (
    WaveletEnergySummary,
    haar_transform_2d,
    inverse_haar_transform_2d,
    std_local_wavelet_slope,
    wavelet_decompose,
    wavelet_energy_statistics,
)
from repro.stats.variogram3d import (
    anisotropy_ratio,
    directional_variogram,
    estimate_variogram_range_3d,
)

__all__ = [
    "EmpiricalVariogram",
    "VariogramConfig",
    "empirical_variogram",
    "FittedVariogram",
    "VariogramModel",
    "gaussian_variogram",
    "exponential_variogram",
    "spherical_variogram",
    "fit_variogram",
    "estimate_variogram_range",
    "variogram_ranges",
    "field_windows",
    "window_grid_shape",
    "LocalVariogramResult",
    "local_variogram_ranges",
    "std_local_variogram_range",
    "LocalSVDResult",
    "svd_truncation_level",
    "local_svd_truncation_levels",
    "std_local_svd_truncation",
    "shannon_entropy",
    "quantized_entropy",
    "autocorrelation_1d",
    "acf_correlation_length",
    "WaveletEnergySummary",
    "haar_transform_2d",
    "inverse_haar_transform_2d",
    "wavelet_decompose",
    "wavelet_energy_statistics",
    "std_local_wavelet_slope",
    "directional_variogram",
    "anisotropy_ratio",
    "estimate_variogram_range_3d",
]
