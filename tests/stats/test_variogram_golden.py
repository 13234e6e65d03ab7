"""Golden pins for the dimension-general variogram path.

``variogram_golden.npz`` holds the lags, values, pair counts, variance and
fitted range of six fields — two registry 2D fields, an odd-sized 33x40
field, 16^3 and 12x48x48 volumes, and a 9x16x16 volume with an explicit
``max_lag`` — plus two windowed local-range grids.  It was produced by
the separate 2D and 3D estimators that preceded the shared one, and its
ranges by an iterative least-squares optimiser.

What the pins hold today:

* lags, pair counts and variance are bit-identical;
* the semi-variogram values agree to ``rtol=1e-12`` (one FFT plus
  prefix-sum box sums rounds differently from four correlations);
* every fitted range, global or per window, is at least as good a fit as
  the pinned one: its weighted misfit (sill profiled out) is at most
  ``1 + 1e-9`` times the misfit at the pinned range.  Where the new fit
  is better, the range itself moves (by up to ~4e-5 relative on these
  pins).

Regenerate the fixture ONLY alongside a deliberate change of the
estimator's output::

    PYTHONPATH=src python tests/stats/test_variogram_golden.py --regenerate
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.datasets import default_registry
from repro.datasets.miranda import generate_miranda_like_volume
from repro.stats.local import local_variogram_ranges
from repro.stats.variogram import VariogramConfig, empirical_variogram
from repro.stats.windows import field_windows
from repro.stats.variogram_models import MAX_RANGE_LAGS, MIN_RANGE, estimate_variogram_range

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "variogram_golden.npz"

CASES = ("gaussian", "miranda", "odd", "cube", "slab", "capped")


def _fields():
    """``{name: (field, config)}`` for every pinned case."""

    registry = default_registry()
    rng = np.random.default_rng(20261017)
    odd = np.cumsum(np.cumsum(rng.normal(size=(33, 40)), axis=0), axis=1) / 8.0
    capped = np.cumsum(rng.normal(size=(9, 16, 16)), axis=2) / 4.0
    return {
        "gaussian": (registry.create("gaussian-single", seed=2021)[2][1], None),
        "miranda": (registry.create("miranda", seed=2021)[0][1], None),
        "odd": (odd, None),
        "cube": (generate_miranda_like_volume((16, 16, 16), seed=11), None),
        "slab": (generate_miranda_like_volume((12, 48, 48), seed=9), None),
        "capped": (capped, VariogramConfig(max_lag=4.0)),
    }


def _build():
    """``{key: array}`` of every pinned output."""

    fields = _fields()
    out = {}
    for name, (field, config) in fields.items():
        variogram = empirical_variogram(field, config)
        out[f"{name}_lags"] = variogram.lags
        out[f"{name}_values"] = variogram.values
        out[f"{name}_pair_counts"] = variogram.pair_counts
        out[f"{name}_variance"] = np.float64(variogram.field_variance)
        out[f"{name}_range"] = np.float64(estimate_variogram_range(field, config=config))
    out["gaussian_local_ranges"] = local_variogram_ranges(fields["gaussian"][0], 32).ranges
    out["cube_local_ranges"] = local_variogram_ranges(fields["cube"][0], 8).ranges
    return out


@pytest.fixture(scope="module")
def built():
    return _build()


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {key: data[key] for key in data.files}


def test_fixture_covers_every_output(golden, built):
    assert sorted(golden) == sorted(built)


def _misfit(variogram, range_: float) -> float:
    """Pair-weighted squared misfit of the nugget-free Gaussian model at ``range_``.

    The sill is profiled out: at a fixed range the best sill (at least
    1e-12) is a ratio of weighted sums.
    """

    weights = np.sqrt(variogram.pair_counts.astype(np.float64))
    w2 = (weights / weights.max()) ** 2
    shape = 1.0 - np.exp(-(variogram.lags**2) / range_**2)
    sill = max(np.sum(w2 * shape * variogram.values) / np.sum(w2 * shape * shape), 1e-12)
    return float(np.sum(w2 * (sill * shape - variogram.values) ** 2))


def _assert_fit_no_worse(variogram, new_range: float, pinned_range: float) -> None:
    assert MIN_RANGE <= new_range <= MAX_RANGE_LAGS * variogram.lags[-1]
    assert _misfit(variogram, new_range) <= (1 + 1e-9) * _misfit(variogram, pinned_range)


@pytest.mark.parametrize("name", CASES)
def test_variogram_matches_golden(golden, built, name):
    for key in ("lags", "pair_counts", "variance"):
        assert np.array_equal(golden[f"{name}_{key}"], built[f"{name}_{key}"]), key
    np.testing.assert_allclose(built[f"{name}_values"], golden[f"{name}_values"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", CASES)
def test_range_fits_no_worse_than_golden(golden, built, name):
    field, config = _fields()[name]
    variogram = empirical_variogram(field, config)
    _assert_fit_no_worse(variogram, float(built[f"{name}_range"]), float(golden[f"{name}_range"]))


@pytest.mark.parametrize(
    "key, name, window",
    [("gaussian_local_ranges", "gaussian", 32), ("cube_local_ranges", "cube", 8)],
)
def test_local_ranges_fit_no_worse_than_golden(golden, built, key, name, window):
    assert golden[key].ndim == (2 if key.startswith("gaussian") else 3)
    assert built[key].shape == golden[key].shape
    field = _fields()[name][0]
    config = VariogramConfig(max_lag=window / 2.0)
    for index, tile in field_windows(field, window):
        _assert_fit_no_worse(
            empirical_variogram(tile, config), float(built[key][index]), float(golden[key][index])
        )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("pass --regenerate to overwrite the golden fixture")
    np.savez(GOLDEN_PATH, **_build())
    print(f"wrote {GOLDEN_PATH}")
