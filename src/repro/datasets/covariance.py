"""Parametric spatial covariance models.

The paper's synthetic fields use the squared-exponential (Gaussian)
covariance ``C(h) = sigma^2 * exp(-h^2 / a^2)`` where ``a`` is the
correlation range (paper Eq. 2); its multi-range fields superpose such
components (:class:`MixtureCovariance`).  Every model maps an array of
distances ``h >= 0`` to covariances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import ensure_positive

__all__ = [
    "CovarianceModel",
    "SquaredExponentialCovariance",
    "MixtureCovariance",
]


class CovarianceModel(ABC):
    """Isotropic, stationary covariance model ``C(h)``."""

    #: marginal variance (sill); subclasses set this in ``__init__``.
    variance: float

    @abstractmethod
    def __call__(self, distances: np.ndarray) -> np.ndarray:
        """Covariance at the given (non-negative) distances."""


@dataclass(frozen=True)
class SquaredExponentialCovariance(CovarianceModel):
    """``C(h) = variance * exp(-(h/range)^2)`` — the paper's model."""

    range: float = 10.0
    variance: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.range, "range")
        ensure_positive(self.variance, "variance")

    def __call__(self, distances: np.ndarray) -> np.ndarray:
        h = np.asarray(distances, dtype=np.float64)
        return self.variance * np.exp(-((h / self.range) ** 2))


class MixtureCovariance(CovarianceModel):
    """Convex combination of component covariances.

    The paper's multi-range Gaussian fields superpose two squared-exponential
    components "contributing equally to the total field"; that corresponds to
    a mixture covariance with equal weights.
    """

    def __init__(
        self,
        components: Sequence[CovarianceModel],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not components:
            raise ValueError("MixtureCovariance requires at least one component")
        self.components = tuple(components)
        if weights is None:
            weights = [1.0 / len(components)] * len(components)
        if len(weights) != len(components):
            raise ValueError("weights and components must have the same length")
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum to > 0")
        self.weights = tuple((w / w.sum()).tolist())
        self.variance = float(
            sum(wi * comp.variance for wi, comp in zip(self.weights, self.components))
        )

    def __call__(self, distances: np.ndarray) -> np.ndarray:
        h = np.asarray(distances, dtype=np.float64)
        total = np.zeros_like(h, dtype=np.float64)
        for weight, component in zip(self.weights, self.components):
            total += weight * component(h)
        return total
