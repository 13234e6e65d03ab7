"""Autocorrelation-based correlation-length estimators.

An independent (non-variogram) estimate of the spatial correlation scale,
which the tests use to check the Gaussian field generator's range
without going through the variogram code.  For a field with
squared-exponential correlation ``exp(-h^2/a^2)`` the lag at which the ACF
drops to ``1/e`` equals ``a``; the e-folding estimator below exploits that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import ensure_2d, ensure_float_array

def autocorrelation_1d(values: np.ndarray, max_lag: Optional[int] = None) -> np.ndarray:
    """Sample autocorrelation of a 1D sequence for lags ``0..max_lag``.

    Uses the FFT-based estimator normalised by the lag-0 value, with the
    mean removed.
    """

    arr = ensure_float_array(values, "values").ravel()
    n = arr.size
    if n < 2:
        raise ValueError("need at least 2 samples for an autocorrelation")
    if max_lag is None:
        max_lag = n // 2
    max_lag = int(min(max_lag, n - 1))
    centered = arr - arr.mean()
    # FFT-based full autocovariance.
    nfft = int(2 ** np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[: max_lag + 1]
    if acov[0] <= 0:
        return np.concatenate(([1.0], np.zeros(max_lag)))
    return acov / acov[0]


def acf_correlation_length(field: np.ndarray, axis: int = 0, max_lag: Optional[int] = None) -> float:
    """E-folding correlation length of a 2D field along ``axis``.

    The ACF is averaged over all 1D slices along the chosen axis; the
    correlation length is the (linearly interpolated) lag at which the
    averaged ACF first drops below ``1/e``.  Returns ``max_lag`` when the
    ACF never drops below the threshold within the computed lags (a very
    smooth field).
    """

    field = ensure_2d(field, "field")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    data = field if axis == 1 else field.T
    n_series, length = data.shape
    if max_lag is None:
        max_lag = length // 2
    acfs = np.zeros(max_lag + 1)
    for series in data:
        acfs += autocorrelation_1d(series, max_lag)
    acfs /= n_series

    threshold = 1.0 / np.e
    below = np.nonzero(acfs < threshold)[0]
    if below.size == 0:
        return float(max_lag)
    k = int(below[0])
    if k == 0:
        return 0.0
    # Linear interpolation between lag k-1 and k.
    a0, a1 = acfs[k - 1], acfs[k]
    if a0 == a1:
        return float(k)
    frac = (a0 - threshold) / (a0 - a1)
    return float(k - 1 + frac)
