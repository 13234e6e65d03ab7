"""Dataset substrate: synthetic fields with controllable correlation structure.

The paper evaluates on two kinds of 2D data:

* **Gaussian random fields** with a squared-exponential correlation model,
  either with a single correlation range or a mixture of two ranges
  (:mod:`repro.datasets.gaussian`).
* **Miranda** hydrodynamics snapshots (velocityx), sliced from a 3D volume
  into 2D planes.  The original SDRBench file is not redistributable here,
  so :mod:`repro.datasets.miranda` synthesises a turbulence-like volume with
  comparable multi-scale correlation structure (see DESIGN.md for the
  substitution rationale).

Supporting modules provide parametric covariance functions
(:mod:`repro.datasets.covariance`), 3D-to-2D slicing helpers
(:mod:`repro.datasets.slicing`), raw binary / ``.npy`` I/O compatible with
the SDRBench layout (:mod:`repro.datasets.io`) and a string-keyed registry
used by the experiment pipeline (:mod:`repro.datasets.registry`).
"""

from repro.datasets.covariance import (
    CovarianceModel,
    MixtureCovariance,
    SquaredExponentialCovariance,
)
from repro.datasets.gaussian import (
    GaussianFieldConfig,
    GaussianRandomFieldGenerator,
    generate_gaussian_field,
    generate_multi_range_field,
)
from repro.datasets.miranda import MirandaConfig, MirandaSurrogate, generate_miranda_like_volume
from repro.datasets.nonstationary import (
    NonstationaryFieldConfig,
    blob_range_map,
    generate_nonstationary_field,
    gradient_range_map,
    split_range_map,
)
from repro.datasets.slicing import slice_volume, slice_indices
from repro.datasets.io import load_field, load_raw
from repro.datasets.registry import DatasetRegistry, default_registry

__all__ = [
    "CovarianceModel",
    "SquaredExponentialCovariance",
    "MixtureCovariance",
    "GaussianFieldConfig",
    "GaussianRandomFieldGenerator",
    "generate_gaussian_field",
    "generate_multi_range_field",
    "MirandaConfig",
    "MirandaSurrogate",
    "generate_miranda_like_volume",
    "NonstationaryFieldConfig",
    "generate_nonstationary_field",
    "gradient_range_map",
    "blob_range_map",
    "split_range_map",
    "slice_volume",
    "slice_indices",
    "load_field",
    "load_raw",
    "DatasetRegistry",
    "default_registry",
]
