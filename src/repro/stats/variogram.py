"""Empirical (semi-)variogram estimation for 2D fields and 3D volumes.

The paper's Eq. (1) is the classical Matheron estimator

.. math::

    \\gamma(h) = \\frac{1}{2 N(h)} \\sum_{|x_i - x_j| = h} (z(x_i) - z(x_j))^2

computed over grid-point pairs at (binned) Euclidean distance ``h`` of a
2D field or, through the same code, a 3D volume.

The estimator enumerates *all* pairs exactly.  For a gridded field the
sum of squared differences at an integer offset ``d`` expands into
``sum z(x)^2 + sum z(x+d)^2 - 2 sum z(x) z(x+d)`` over the positions where
both points lie inside the grid.  The cross term is the field's
autocorrelation, taken for every offset by one real FFT padded to
``n + max_lag`` along each axis (enough that no offset up to the largest
lag wraps around).  The two squared terms are sums of ``z^2`` over an
axis-aligned box, read off one prefix-sum array, and the pair count is the
product of ``n - |d|`` over the axes.  Offsets are then binned by their
Euclidean length.  A stack of equal-shape fields (the windows of the
paper's local statistic, or a store's chunks) shares the offsets, pair
counts and bins, and takes one transform over the whole stack.  This is
both faster and statistically better (no sampling noise) than pair
subsampling, which ``benchmarks/test_ablation_variogram_sampling.py``
compares it with.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy import fft

from repro.utils.validation import ensure_float_array, ensure_ndim, ensure_positive

__all__ = [
    "VariogramConfig",
    "EmpiricalVariogram",
    "check_field",
    "empirical_variogram",
]

#: Padded grid points (over the whole stack) one batch of
#: :func:`_variogram_batches` transforms at once; bounds the FFT's memory.
BATCH_POINTS = 1 << 18


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
    min_pairs_per_bin:
        Bins with fewer pairs than this are dropped from the output.
    """

    max_lag: Optional[float] = None
    bin_width: float = 1.0
    min_pairs_per_bin: int = 1

    def __post_init__(self) -> None:
        if self.max_lag is not None:
            ensure_positive(self.max_lag, "max_lag")
        ensure_positive(self.bin_width, "bin_width")
        ensure_positive(self.min_pairs_per_bin, "min_pairs_per_bin")


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Result of an empirical variogram estimation.

    Attributes
    ----------
    lags:
        Centre distance of each bin.
    values:
        Semi-variogram value :math:`\\gamma(h)` per bin; ``(n, bins)`` for
        a stack of ``n`` equal-shape fields, which share lags and counts.
    pair_counts:
        Number of point pairs contributing to each bin.
    field_variance:
        Sample variance of the field, a natural reference for the sill
        (an ``(n,)`` array for a stack).
    """

    lags: np.ndarray
    values: np.ndarray
    pair_counts: np.ndarray
    field_variance: float

    def __post_init__(self) -> None:
        if not (len(self.lags) == np.shape(self.values)[-1] == len(self.pair_counts)):
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
    max_lag: float, config: VariogramConfig, field_variance: np.ndarray,
) -> EmpiricalVariogram:
    """Bin each row of squared-difference ``sums`` over ``counts`` pairs by distance.

    ``sums`` is ``(n, pairs)`` and the result is stacked.
    """

    n_bins = int(np.ceil(max_lag / config.bin_width))
    # repro-lint: disable=unsafe-cast -- lag distances are norms of finite integer grid offsets and bin_width is validated positive
    bin_index = np.minimum((distances / config.bin_width).astype(np.int64), n_bins - 1)
    bin_counts = np.bincount(bin_index, weights=counts, minlength=n_bins)
    bin_dist_sum = np.bincount(bin_index, weights=distances * counts, minlength=n_bins)
    rows = len(sums)
    row_bins = (np.arange(rows)[:, None] * n_bins + bin_index).ravel()
    bin_sums = np.bincount(row_bins, weights=sums.ravel(), minlength=rows * n_bins)

    valid = bin_counts >= config.min_pairs_per_bin
    gamma = bin_sums.reshape(rows, n_bins)[:, valid] / (2.0 * bin_counts[valid])
    return EmpiricalVariogram(
        lags=bin_dist_sum[valid] / bin_counts[valid],
        values=gamma,
        pair_counts=bin_counts[valid].astype(np.int64),
        field_variance=field_variance,
    )


@dataclass(frozen=True)
class _LagPlan:
    """Everything about the FFT estimator that depends only on the shape and config.

    ``padded`` is the transform shape, ``correlation_index`` the flat
    position of each kept offset in the (circular) autocorrelation,
    ``box_index`` / ``box_sign`` the prefix-sum corners whose signed sum
    gives both ``z^2`` box sums of each offset, and ``distances`` /
    ``counts`` each offset's length and pair count.
    """

    max_lag: float
    padded: Tuple[int, ...]
    correlation_index: np.ndarray
    box_index: np.ndarray
    box_sign: np.ndarray
    distances: np.ndarray
    counts: np.ndarray


@functools.lru_cache(maxsize=16)
def _lag_plan(shape: Tuple[int, ...], config: VariogramConfig) -> _LagPlan:
    max_lag = _resolve_max_lag(shape, config.max_lag)
    reach = [min(int(np.floor(max_lag)), n - 1) for n in shape]
    offsets = np.ogrid[tuple(slice(-r, r + 1) for r in reach)]
    dist = np.sqrt(sum(offset.astype(np.float64) ** 2 for offset in offsets))
    # The autocorrelation is symmetric in the offset sign; keep the offsets
    # whose first non-zero component is positive so every unordered point
    # pair is counted exactly once.
    half_space, leading_zeros = False, True
    for offset in offsets:
        half_space = half_space | (leading_zeros & (offset > 0))
        leading_zeros = leading_zeros & (offset == 0)
    kept = np.nonzero(half_space & (dist <= max_lag))
    d = [kept[axis] - reach[axis] for axis in range(len(shape))]

    # n + reach points per axis: no kept offset wraps around the circle.
    padded = tuple(n + r for n, r in zip(shape, reach))
    correlation_index = np.ravel_multi_index(tuple(d), padded, mode="wrap")
    counts = np.prod([n - np.abs(dk) for n, dk in zip(shape, d)], axis=0).astype(np.float64)

    # z(x)^2 over the positions x whose partner x + d is inside the grid,
    # then z(y)^2 over the partners y = x + d: two boxes per offset, each
    # the signed sum of 2^ndim corners of the prefix-sum array.
    boxes = [
        [(np.maximum(0, -dk), n - np.maximum(0, dk)) for n, dk in zip(shape, d)],
        [(np.maximum(0, dk), n + np.minimum(0, dk)) for n, dk in zip(shape, d)],
    ]
    prefix_shape = tuple(n + 1 for n in shape)
    box_index, box_sign = [], []
    for box in boxes:
        for corner in itertools.product((1, 0), repeat=len(shape)):
            point = tuple(box[axis][side] for axis, side in enumerate(corner))
            box_index.append(np.ravel_multi_index(point, prefix_shape))
            box_sign.append((-1.0) ** (len(shape) - sum(corner)))
    plan = _LagPlan(
        max_lag=max_lag,
        padded=padded,
        correlation_index=correlation_index,
        box_index=np.array(box_index),
        box_sign=np.array(box_sign),
        distances=dist[kept],
        counts=counts,
    )
    # Cached and shared by every caller: read-only.
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


def _variogram_fft(stack: np.ndarray, config: VariogramConfig) -> EmpiricalVariogram:
    """Stacked variogram of the equal-shape fields ``stack[i]`` (checked, float64)."""

    shape = stack.shape[1:]
    axes = tuple(range(1, stack.ndim))
    plan = _lag_plan(shape, config)
    field_variance = stack.var(axis=axes)
    # Squared differences are shift invariant; removing the mean first keeps
    # the FFT cancellation error small (a constant field yields exactly 0).
    z = stack - stack.mean(axis=axes, keepdims=True)

    # scipy's n-D transform runs in one call, not one per axis as numpy's.
    spectrum = fft.rfftn(z, s=plan.padded, axes=axes)
    power = spectrum.real**2 + spectrum.imag**2
    autocorrelation = fft.irfftn(power, s=plan.padded, axes=axes, overwrite_x=True)
    cross = autocorrelation.reshape(len(stack), -1)[:, plan.correlation_index]

    prefix = np.zeros((len(stack),) + tuple(n + 1 for n in shape))
    np.square(z, out=prefix[(slice(None),) + (slice(1, None),) * len(shape)])
    for axis in axes:
        np.cumsum(prefix, axis=axis, out=prefix)
    sums = plan.box_sign @ prefix.reshape(len(stack), -1)[:, plan.box_index]
    sums -= 2.0 * cross
    np.clip(sums, 0.0, None, out=sums)  # clip FFT round-off
    return _bin_pairs(plan.distances, sums, plan.counts, plan.max_lag, config, field_variance)


def _variogram_batches(
    fields: Sequence[np.ndarray], config: VariogramConfig | None = None
) -> Iterator[EmpiricalVariogram]:
    """Stacked variograms of equal-shape ``fields``, in order, batch by batch.

    ``fields`` is a sequence of 2D or 3D arrays of one shape (e.g. the
    windows of :func:`repro.stats.windows.field_windows`, or an ``(n,
    *shape)`` array).  Each yielded variogram stacks consecutive fields,
    as many as fit :data:`BATCH_POINTS` padded grid points (at least one),
    so memory stays bounded however many fields there are.
    """

    config = config or VariogramConfig()
    if len(fields) == 0:
        return
    fields = [check_field(field) for field in fields]
    plan = _lag_plan(fields[0].shape, config)
    rows = max(1, BATCH_POINTS // int(np.prod(plan.padded)))
    for start in range(0, len(fields), rows):
        yield _variogram_fft(np.stack(fields[start:start + rows]), config)


def empirical_variogram(
    field: np.ndarray, config: VariogramConfig | None = None
) -> EmpiricalVariogram:
    """Estimate the empirical semi-variogram of a 2D field or 3D volume.

    Parameters
    ----------
    field:
        2D or 3D array of the studied variable (e.g. a velocityx slice or
        volume).  It must be finite.
    config:
        Estimator configuration; defaults to unit lag bins up to half the
        smallest field dimension.
    """

    stacked = _variogram_fft(check_field(field)[None], config or VariogramConfig())
    return EmpiricalVariogram(
        lags=stacked.lags,
        values=stacked.values[0],
        pair_counts=stacked.pair_counts,
        field_variance=float(stacked.field_variance[0]),
    )
