"""Golden pins for the dimension-general variogram path.

``variogram_golden.npz`` holds the lags, values, pair counts, variance and
fitted range of six fields — two registry 2D fields, an odd-sized 33x40
field, 16^3 and 12x48x48 volumes, and a 9x16x16 volume with an explicit
``max_lag`` — plus two windowed local-range grids.  It was produced by
the separate 2D and 3D estimators that preceded the shared one, so the
pins prove the shared path returns the same bits.

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
from repro.stats.variogram_models import estimate_variogram_range

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


@pytest.mark.parametrize("name", CASES)
def test_variogram_bit_identical(golden, built, name):
    for key in ("lags", "values", "pair_counts", "variance", "range"):
        assert np.array_equal(golden[f"{name}_{key}"], built[f"{name}_{key}"]), key


@pytest.mark.parametrize("key", ["gaussian_local_ranges", "cube_local_ranges"])
def test_local_ranges_bit_identical(golden, built, key):
    assert golden[key].ndim == (2 if key.startswith("gaussian") else 3)
    assert np.array_equal(golden[key], built[key])


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("pass --regenerate to overwrite the golden fixture")
    np.savez(GOLDEN_PATH, **_build())
    print(f"wrote {GOLDEN_PATH}")
