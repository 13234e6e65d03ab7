"""Brute-force oracle for the FFT variogram estimator.

Every point pair of a small seeded field is enumerated directly: its
Euclidean distance picks the bin, and the bin accumulates the pair, its
distance and its squared difference.  The FFT estimator (one transform
plus prefix-sum box sums) must reproduce the pair counts and lag centres
exactly and the semi-variogram values to ``rtol=1e-12``.  A stacked call
must return, row by row, what each field gives on its own.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import repro.stats.variogram as variogram
from repro.stats.variogram import VariogramConfig, empirical_variogram
from repro.stats.variogram_models import estimate_variogram_range, variogram_ranges


def _brute_force(field: np.ndarray, config: VariogramConfig):
    """``(lags, values, pair_counts)`` from every unordered point pair.

    Pairs are tallied per grid offset ``b - a`` (``a`` before ``b`` in C
    order, so each unordered pair appears once); then the offsets are
    binned by length in lexicographic order.  Every pair at one offset has
    the same length, and summing the lag numerator offset by offset in
    that order gives the lag centres bit for bit.
    """

    max_lag = config.max_lag if config.max_lag is not None else float(min(field.shape) // 2)
    n_bins = int(np.ceil(max_lag / config.bin_width))
    tally = {}
    for a, b in itertools.combinations(np.ndindex(field.shape), 2):
        offset = tuple(int(q) - int(p) for p, q in zip(a, b))
        count, squares = tally.get(offset, (0, 0.0))
        tally[offset] = (count + 1, squares + (field[a] - field[b]) ** 2)

    counts = np.zeros(n_bins, dtype=np.int64)
    distance_sums = np.zeros(n_bins)
    squared_sums = np.zeros(n_bins)
    for offset in sorted(tally):
        distance = math.sqrt(sum(float(d) ** 2 for d in offset))
        if distance > max_lag:
            continue
        count, squares = tally[offset]
        index = min(int(distance / config.bin_width), n_bins - 1)
        counts[index] += count
        distance_sums[index] += distance * count
        squared_sums[index] += squares
    valid = counts >= config.min_pairs_per_bin
    return (
        distance_sums[valid] / counts[valid],
        squared_sums[valid] / (2.0 * counts[valid]),
        counts[valid],
    )


CONFIGS = {
    "default": VariogramConfig(),
    "fractional": VariogramConfig(max_lag=2.5),
    "beyond-extent": VariogramConfig(max_lag=12.0),
    "half-bins": VariogramConfig(max_lag=3.0, bin_width=0.5),
    "wide-bins": VariogramConfig(max_lag=6.0, bin_width=2.0),
    "min-pairs": VariogramConfig(max_lag=6.0, min_pairs_per_bin=5),
}


@pytest.mark.parametrize("shape", [(5, 7), (3, 4, 6)], ids=["5x7", "3x4x6"])
@pytest.mark.parametrize("name", CONFIGS)
def test_fft_matches_every_pair(shape, name):
    config = CONFIGS[name]
    field = np.random.default_rng(sum(shape)).normal(size=shape) + 2.0
    lags, values, counts = _brute_force(field, config)
    result = empirical_variogram(field, config)
    assert np.array_equal(result.pair_counts, counts)
    assert np.array_equal(result.lags, lags)
    np.testing.assert_allclose(result.values, values, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [(4, 9, 9), (6, 8, 8, 8)], ids=["2d", "3d"])
def test_stacked_rows_match_single_fields(shape):
    rng = np.random.default_rng(7)
    stack = np.cumsum(rng.normal(size=shape), axis=-1)
    stack[1] = 3.0  # a constant field rides along
    config = VariogramConfig(max_lag=3.5)
    (stacked,) = list(variogram._variogram_batches(stack, config))
    for row, field in enumerate(stack):
        single = empirical_variogram(field, config)
        assert np.array_equal(stacked.lags, single.lags)
        assert np.array_equal(stacked.pair_counts, single.pair_counts)
        np.testing.assert_allclose(stacked.values[row], single.values, rtol=1e-12, atol=1e-300)
        assert stacked.field_variance[row] == pytest.approx(single.field_variance, rel=1e-12)

    ranges = variogram_ranges(stack, config=config)
    singles = [estimate_variogram_range(field, config=config) for field in stack]
    assert np.isnan(ranges[1]) and np.isnan(singles[1])
    np.testing.assert_allclose(ranges, singles, rtol=1e-9)


def test_batches_are_bounded(monkeypatch):
    """However many fields, one batch stacks at most BATCH_POINTS padded points."""

    monkeypatch.setattr(variogram, "BATCH_POINTS", 3 * 24**3)
    fields = np.random.default_rng(3).normal(size=(8, 16, 16, 16))
    batches = list(variogram._variogram_batches(fields))
    assert [len(batch.values) for batch in batches] == [3, 3, 2]
    whole = np.concatenate([batch.values for batch in batches])
    for row in (0, 4, 7):
        np.testing.assert_allclose(whole[row], empirical_variogram(fields[row]).values, rtol=1e-12)


def test_too_few_bins_give_nan_ranges():
    fields = np.random.default_rng(5).normal(size=(3, 4, 4))
    assert np.isnan(variogram_ranges(fields)).all()
    assert np.isnan(estimate_variogram_range(fields[0]))
