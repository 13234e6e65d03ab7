"""Named dataset registry used by the experiment pipeline and examples.

A *dataset factory* is a callable ``(seed) -> list[(label, 2D field)]``.
Registering factories under string keys lets the benchmark harness and the
command-line examples refer to workloads by name ("gaussian-single",
"gaussian-multi", "miranda") the same way libpressio-based scripts refer to
datasets by path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.gaussian import generate_gaussian_field, generate_multi_range_field
from repro.datasets.miranda import MirandaConfig, MirandaSurrogate
from repro.datasets.nonstationary import (
    blob_range_map,
    generate_nonstationary_field,
    gradient_range_map,
    split_range_map,
)
from repro.utils.rng import SeedLike, derive_seeds

__all__ = ["DatasetRegistry", "default_registry"]

DatasetFactory = Callable[[SeedLike], List[Tuple[str, np.ndarray]]]


class DatasetRegistry:
    """String-keyed registry of dataset factories."""

    def __init__(self) -> None:
        self._factories: Dict[str, DatasetFactory] = {}

    def register(self, name: str, factory: DatasetFactory, *, overwrite: bool = False) -> None:
        """Register ``factory`` under ``name``."""

        if not name:
            raise ValueError("dataset name must be non-empty")
        if name in self._factories and not overwrite:
            raise KeyError(f"dataset {name!r} is already registered")
        self._factories[name] = factory

    def names(self) -> List[str]:
        """Sorted list of registered dataset names."""

        return sorted(self._factories)

    def create(self, name: str, seed: SeedLike = None) -> List[Tuple[str, np.ndarray]]:
        """Instantiate the named dataset; returns ``(label, field)`` pairs."""

        try:
            factory = self._factories[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown dataset {name!r}; known datasets: {self.names()}"
            ) from exc
        return factory(seed)


def _gaussian_single_factory(
    shape: Tuple[int, int] = (128, 128),
    ranges: Sequence[float] = (2.0, 4.0, 8.0, 16.0, 32.0, 48.0),
) -> DatasetFactory:
    def factory(seed: SeedLike = None) -> List[Tuple[str, np.ndarray]]:
        seeds = derive_seeds(seed, len(ranges))
        return [
            (f"gaussian-single-a{r:g}", generate_gaussian_field(shape, r, seed=s))
            for r, s in zip(ranges, seeds)
        ]

    return factory


def _gaussian_multi_factory(
    shape: Tuple[int, int] = (128, 128),
    range_pairs: Sequence[Tuple[float, float]] = (
        (2.0, 8.0),
        (2.0, 24.0),
        (4.0, 16.0),
        (4.0, 48.0),
        (8.0, 32.0),
        (16.0, 48.0),
    ),
) -> DatasetFactory:
    def factory(seed: SeedLike = None) -> List[Tuple[str, np.ndarray]]:
        seeds = derive_seeds(seed, len(range_pairs))
        return [
            (
                f"gaussian-multi-a{r1:g}-{r2:g}",
                generate_multi_range_field(shape, (r1, r2), seed=s),
            )
            for (r1, r2), s in zip(range_pairs, seeds)
        ]

    return factory


def _nonstationary_factory(shape: Tuple[int, int] = (128, 128)) -> DatasetFactory:
    """Non-stationary fields (paper future-work item ii): spatially varying range."""

    def factory(seed: SeedLike = None) -> List[Tuple[str, np.ndarray]]:
        specs = [
            ("gradient-2-16", gradient_range_map(shape, 2.0, 16.0)),
            ("gradient-2-32", gradient_range_map(shape, 2.0, 32.0)),
            ("gradient-4-24", gradient_range_map(shape, 4.0, 24.0, axis=1)),
            ("blob-3-24", blob_range_map(shape, 3.0, 24.0)),
            ("blob-2-32", blob_range_map(shape, 2.0, 32.0, blob_fraction=0.25)),
            ("split-3-24", split_range_map(shape, 3.0, 24.0)),
        ]
        seeds = derive_seeds(seed, len(specs))
        return [
            (
                f"gaussian-nonstationary-{name}",
                generate_nonstationary_field(range_map, seed=s),
            )
            for (name, range_map), s in zip(specs, seeds)
        ]

    return factory


def _miranda_factory(
    shape: Tuple[int, int, int] = (32, 128, 128), slice_count: int = 8
) -> DatasetFactory:
    def factory(seed: SeedLike = None) -> List[Tuple[str, np.ndarray]]:
        surrogate = MirandaSurrogate(MirandaConfig(shape=shape))
        slices = surrogate.generate_slices(seed=seed, axis=0, count=slice_count)
        return [(f"miranda-velocityx-z{idx}", plane) for idx, plane in slices]

    return factory


def _miranda_volume_factory(
    shape: Tuple[int, int, int] = (64, 64, 64)
) -> DatasetFactory:
    """The Miranda workload as a native 3D volume (no slicing).

    The returned field is 3D; the experiment pipeline measures it whole,
    like a 2D field (:func:`repro.core.experiment.measure_field`).
    """

    def factory(seed: SeedLike = None) -> List[Tuple[str, np.ndarray]]:
        surrogate = MirandaSurrogate(MirandaConfig(shape=shape))
        return [("miranda-velocityx-volume", surrogate.generate(seed))]

    return factory


def default_registry(
    gaussian_shape: Tuple[int, int] = (128, 128),
    miranda_shape: Tuple[int, int, int] = (32, 128, 128),
    miranda_volume_shape: Tuple[int, int, int] = (64, 64, 64),
) -> DatasetRegistry:
    """Registry pre-populated with the paper's workloads.

    ``gaussian-single``, ``gaussian-multi`` and ``miranda`` are the paper's
    three evaluation datasets; ``gaussian-nonstationary`` adds the
    future-work item (ii) workload (spatially varying correlation range),
    and ``miranda-volume`` exposes the Miranda surrogate as a native 3D
    volume for the volumetric compression path.
    """

    registry = DatasetRegistry()
    registry.register("gaussian-single", _gaussian_single_factory(shape=gaussian_shape))
    registry.register("gaussian-multi", _gaussian_multi_factory(shape=gaussian_shape))
    registry.register(
        "gaussian-nonstationary", _nonstationary_factory(shape=gaussian_shape)
    )
    registry.register("miranda", _miranda_factory(shape=miranda_shape))
    registry.register(
        "miranda-volume", _miranda_volume_factory(shape=miranda_volume_shape)
    )
    return registry
