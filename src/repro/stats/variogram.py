"""Empirical (semi-)variogram estimation for 2D fields and 3D volumes.

The paper's Eq. (1) is the classical Matheron estimator

.. math::

    \\gamma(h) = \\frac{1}{2 N(h)} \\sum_{|x_i - x_j| = h} (z(x_i) - z(x_j))^2

computed over grid-point pairs at (binned) Euclidean distance ``h`` of a
2D field or, through the same code, a 3D volume.

Two estimation strategies are provided:

``method="fft"`` (default)
    Exact enumeration of *all* pairs using FFT-based cross-correlations.
    For a gridded field the sum of squared differences at every integer
    offset ``d`` can be written with three correlation arrays
    (``corr(z, z)``, ``corr(z^2, 1)``, ``corr(1, z^2)``), each computable in
    O(N log N) whatever the number of axes.  Offsets are then binned by
    their Euclidean length.  This is both faster and statistically better
    (no sampling noise) than pair subsampling and is what the library uses
    everywhere by default.

``method="pairs"``
    Monte-Carlo subsampling of point pairs of a 2D field, the approach
    typically used for scattered (non-gridded) data; kept as an independent
    cross-check and for the ablation study on estimator sampling
    (``benchmarks/test_ablation_variogram_sampling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.signal import fftconvolve

from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import ensure_float_array, ensure_in, ensure_ndim, ensure_positive

__all__ = ["VariogramConfig", "EmpiricalVariogram", "check_field", "empirical_variogram"]


@dataclass(frozen=True)
class VariogramConfig:
    """Configuration of the empirical variogram estimator.

    Attributes
    ----------
    max_lag:
        Largest pair distance considered.  ``None`` uses half the smallest
        field dimension, rounded down (``min(shape) // 2``), the standard
        geostatistical rule of thumb (beyond that the number of available
        pairs collapses and the estimate is noisy).
    bin_width:
        Width of the distance bins; 1.0 gives (approximately) one bin per
        integer lag on a unit grid.
    method:
        ``"fft"`` or ``"pairs"`` (see module docstring).
    n_pairs:
        Number of random pairs drawn when ``method="pairs"``.
    min_pairs_per_bin:
        Bins with fewer pairs than this are dropped from the output.
    """

    max_lag: Optional[float] = None
    bin_width: float = 1.0
    method: str = "fft"
    n_pairs: int = 100_000
    min_pairs_per_bin: int = 1

    def __post_init__(self) -> None:
        if self.max_lag is not None:
            ensure_positive(self.max_lag, "max_lag")
        ensure_positive(self.bin_width, "bin_width")
        ensure_in(self.method, ("fft", "pairs"), "method")
        ensure_positive(self.n_pairs, "n_pairs")
        ensure_positive(self.min_pairs_per_bin, "min_pairs_per_bin")


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Result of an empirical variogram estimation.

    Attributes
    ----------
    lags:
        Centre distance of each bin.
    values:
        Semi-variogram value :math:`\\gamma(h)` per bin.
    pair_counts:
        Number of point pairs contributing to each bin.
    field_variance:
        Sample variance of the field, a natural reference for the sill.
    """

    lags: np.ndarray
    values: np.ndarray
    pair_counts: np.ndarray
    field_variance: float

    def __post_init__(self) -> None:
        if not (len(self.lags) == len(self.values) == len(self.pair_counts)):
            raise ValueError("lags, values and pair_counts must have equal length")

    @property
    def n_bins(self) -> int:
        return len(self.lags)


def _resolve_max_lag(shape: Tuple[int, ...], max_lag: Optional[float]) -> float:
    if max_lag is not None:
        return float(max_lag)
    return float(min(shape) // 2)


def check_field(field: np.ndarray) -> np.ndarray:
    """Return ``field`` as float64 after checking it is a finite 2D or 3D grid.

    Every axis needs at least two points to form a pair.  NaN or inf would
    poison every FFT correlation sum, so they are rejected up front.
    """

    field = ensure_float_array(ensure_ndim(field, (2, 3), "field"), "field")
    if min(field.shape) < 2:
        raise ValueError("field must have at least 2 points along every axis to form point pairs")
    if not np.isfinite(field).all():
        raise ValueError("field contains NaN or inf values; the variogram needs finite data")
    return field


def _bin_pairs(
    distances: np.ndarray, sums: np.ndarray, counts: np.ndarray,
    max_lag: float, config: VariogramConfig, field_variance: float,
) -> EmpiricalVariogram:
    """Bin squared-difference ``sums`` over ``counts`` pairs by their distance.

    The binning step both estimators share.
    """

    n_bins = int(np.ceil(max_lag / config.bin_width))
    # repro-lint: disable=unsafe-cast -- lag distances are norms of finite integer grid offsets and bin_width is validated positive
    bin_index = np.minimum((distances / config.bin_width).astype(np.int64), n_bins - 1)
    bin_sums = np.bincount(bin_index, weights=sums, minlength=n_bins)
    bin_counts = np.bincount(bin_index, weights=counts, minlength=n_bins)
    bin_dist_sum = np.bincount(bin_index, weights=distances * counts, minlength=n_bins)

    valid = bin_counts >= config.min_pairs_per_bin
    gamma = np.zeros(n_bins)
    gamma[valid] = bin_sums[valid] / (2.0 * bin_counts[valid])
    lag_centres = np.zeros(n_bins)
    lag_centres[valid] = bin_dist_sum[valid] / bin_counts[valid]

    return EmpiricalVariogram(
        lags=lag_centres[valid],
        values=gamma[valid],
        pair_counts=bin_counts[valid].astype(np.int64),
        field_variance=field_variance,
    )


def _variogram_fft(field: np.ndarray, config: VariogramConfig) -> EmpiricalVariogram:
    max_lag = _resolve_max_lag(field.shape, config.max_lag)
    field_variance = float(field.var())
    # Squared differences are shift invariant; removing the mean first keeps
    # the FFT cancellation error small (a constant field yields exactly 0).
    field = field - field.mean()

    ones = np.ones_like(field)
    sq = field * field
    flip = (slice(None, None, -1),) * field.ndim

    # Full cross-correlation arrays over every offset d with
    # -(n - 1) <= d <= n - 1 along each axis of length n.
    corr_zz = fftconvolve(field, field[flip], mode="full")
    corr_sq_one = fftconvolve(sq, ones[flip], mode="full")
    corr_one_sq = fftconvolve(ones, sq[flip], mode="full")
    pair_count = np.rint(fftconvolve(ones, ones[flip], mode="full"))

    # Sum over valid positions of (z(x) - z(x+d))^2 for every offset d.
    sq_diff = corr_sq_one + corr_one_sq - 2.0 * corr_zz

    offsets = np.ogrid[tuple(slice(-(n - 1), n) for n in field.shape)]
    dist = np.sqrt(sum(offset.astype(np.float64) ** 2 for offset in offsets))

    # The correlation arrays are symmetric in the offset sign; keep the
    # offsets whose first non-zero component is positive so every unordered
    # point pair is counted exactly once.
    half_space, leading_zeros = False, True
    for offset in offsets:
        half_space = half_space | (leading_zeros & (offset > 0))
        leading_zeros = leading_zeros & (offset == 0)
    mask = half_space & (dist <= max_lag) & (pair_count > 0)
    sums = np.clip(sq_diff[mask], 0.0, None)  # clip FFT round-off
    return _bin_pairs(dist[mask], sums, pair_count[mask], max_lag, config, field_variance)


def _variogram_pairs(
    field: np.ndarray, config: VariogramConfig, seed: SeedLike = None
) -> EmpiricalVariogram:
    rows, cols = field.shape
    max_lag = _resolve_max_lag(field.shape, config.max_lag)
    rng = make_rng(seed)

    n_points = rows * cols
    n_pairs = int(min(config.n_pairs, n_points * (n_points - 1) // 2))
    idx_a = rng.integers(0, n_points, size=n_pairs)
    idx_b = rng.integers(0, n_points, size=n_pairs)
    keep = idx_a != idx_b
    idx_a, idx_b = idx_a[keep], idx_b[keep]

    ra, ca = np.divmod(idx_a, cols)
    rb, cb = np.divmod(idx_b, cols)
    dist = np.sqrt((ra - rb) ** 2.0 + (ca - cb) ** 2.0)
    in_range = (dist > 0) & (dist <= max_lag)
    dist = dist[in_range]
    za = field[ra[in_range], ca[in_range]]
    zb = field[rb[in_range], cb[in_range]]
    return _bin_pairs(
        dist, (za - zb) ** 2, np.ones_like(dist), max_lag, config, float(field.var())
    )


def empirical_variogram(
    field: np.ndarray,
    config: VariogramConfig | None = None,
    seed: SeedLike = None,
) -> EmpiricalVariogram:
    """Estimate the empirical semi-variogram of a 2D field or 3D volume.

    Parameters
    ----------
    field:
        2D or 3D array of the studied variable (e.g. a velocityx slice or
        volume).  It must be finite.
    config:
        Estimator configuration; defaults to the exact FFT method with unit
        lag bins up to half the smallest field dimension.
    seed:
        Only used by the ``"pairs"`` method for pair subsampling.
    """

    field = check_field(field)
    config = config or VariogramConfig()
    if config.method == "fft":
        return _variogram_fft(field, config)
    if field.ndim != 2:
        raise ValueError(f"the pairs method takes 2D fields, got shape {field.shape}")
    return _variogram_pairs(field, config, seed=seed)
