"""Stationary 2D Gaussian random field generation.

The paper's synthetic datasets are zero-mean Gaussian fields on a regular
grid with squared-exponential correlation (Eq. 2), generated for a sweep of
correlation ranges, in two flavours:

* *single-range* fields — one squared-exponential component, and
* *multi-range* fields — two components with distinct ranges contributing
  equally to the total field.

Sampling method
---------------
The default sampler uses **circulant embedding**: the target covariance is
embedded in a doubly periodic covariance on an enlarged grid whose
covariance matrix is block-circulant and therefore diagonalised by the 2D
FFT.  Sampling is then two FFTs — O(N log N) — and *exact* when the
embedding is positive semi-definite (we clip tiny negative eigenvalues that
arise from floating point noise, and raise if the energy clipped is
non-negligible unless ``allow_approximate`` is set).  The tests check it
against a dense Cholesky sampler on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datasets.covariance import (
    CovarianceModel,
    MixtureCovariance,
    SquaredExponentialCovariance,
)
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import ensure_positive

__all__ = [
    "GaussianFieldConfig",
    "GaussianRandomFieldGenerator",
    "generate_gaussian_field",
    "generate_multi_range_field",
]


@dataclass(frozen=True)
class GaussianFieldConfig:
    """Configuration of a Gaussian random field sample.

    Attributes
    ----------
    shape:
        Grid shape ``(rows, cols)``.  The paper uses 1028x1028; the default
        here is smaller because the reproduction's compressors are pure
        Python, but every size is supported.
    covariance:
        The isotropic covariance model.
    mean:
        Constant mean added to the zero-mean sample (paper uses 0).
    allow_approximate:
        Accept a slightly approximate sample when the circulant embedding is
        not positive semi-definite (negative eigenvalues are clipped).  For
        the squared-exponential family on reasonably sized grids the
        embedding is effectively PSD, so the default is strict.
    """

    shape: Tuple[int, int] = (256, 256)
    covariance: CovarianceModel = field(default_factory=SquaredExponentialCovariance)
    mean: float = 0.0
    allow_approximate: bool = True

    def __post_init__(self) -> None:
        if len(self.shape) != 2:
            raise ValueError(f"shape must be 2D, got {self.shape}")
        ensure_positive(self.shape[0], "shape[0]")
        ensure_positive(self.shape[1], "shape[1]")


class GaussianRandomFieldGenerator:
    """Sampler of stationary Gaussian random fields on a 2D grid."""

    def __init__(self, config: GaussianFieldConfig) -> None:
        self.config = config
        self._spectrum_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # circulant embedding sampler (default)
    # ------------------------------------------------------------------
    def _embedding_spectrum(self) -> np.ndarray:
        """Eigenvalues (non-negative) of the periodic embedding covariance."""

        if self._spectrum_cache is not None:
            return self._spectrum_cache

        rows, cols = self.config.shape
        # Embed in a 2x grid (doubly periodic).  Minimum embedding size is
        # (2*rows - 2, 2*cols - 2) but powers-of-two-friendly 2N keeps the
        # FFT fast and the wrap-around distance symmetric.
        erows, ecols = 2 * rows, 2 * cols
        # Periodic (wrapped) distances on the embedding torus.
        di = np.minimum(np.arange(erows), erows - np.arange(erows)).astype(np.float64)
        dj = np.minimum(np.arange(ecols), ecols - np.arange(ecols)).astype(np.float64)
        dist = np.sqrt(di[:, None] ** 2 + dj[None, :] ** 2)
        cov = self.config.covariance(dist)
        spectrum = np.fft.fft2(cov).real
        min_eig = spectrum.min()
        if min_eig < 0:
            clipped_energy = float(-spectrum[spectrum < 0].sum())
            total_energy = float(np.abs(spectrum).sum())
            if not self.config.allow_approximate and clipped_energy > 1e-8 * total_energy:
                raise ValueError(
                    "circulant embedding is not positive semi-definite "
                    f"(clipped {clipped_energy:.3e} of {total_energy:.3e}); "
                    "set allow_approximate=True"
                )
            spectrum = np.clip(spectrum, 0.0, None)
        self._spectrum_cache = spectrum
        return spectrum

    def sample(self, seed: SeedLike = None) -> np.ndarray:
        """Draw one field realisation with the circulant-embedding sampler."""

        rng = make_rng(seed)
        rows, cols = self.config.shape
        spectrum = self._embedding_spectrum()
        erows, ecols = spectrum.shape
        # Complex white noise; the real and imaginary parts of the inverse
        # transform give two independent realisations — we use the real part.
        noise = rng.normal(size=(erows, ecols)) + 1j * rng.normal(size=(erows, ecols))
        coeff = np.sqrt(spectrum / (erows * ecols))
        sample = np.fft.fft2(coeff * noise)
        field_2d = sample.real[:rows, :cols]
        return field_2d + self.config.mean


def generate_gaussian_field(
    shape: Tuple[int, int] = (256, 256),
    correlation_range: float = 10.0,
    variance: float = 1.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Convenience wrapper: one single-range squared-exponential field.

    This mirrors the paper's "single correlation range" synthetic dataset.
    """

    cov = SquaredExponentialCovariance(range=correlation_range, variance=variance)
    generator = GaussianRandomFieldGenerator(GaussianFieldConfig(shape=shape, covariance=cov))
    return generator.sample(seed)


def generate_multi_range_field(
    shape: Tuple[int, int] = (256, 256),
    correlation_ranges: Sequence[float] = (5.0, 40.0),
    variance: float = 1.0,
    weights: Sequence[float] | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """One multi-range field: mixture of squared-exponential components.

    With the default equal weights this matches the paper's construction of
    "Gaussian fields with two distinct correlation ranges contributing
    equally to the total field".
    """

    if len(correlation_ranges) < 2:
        raise ValueError("multi-range fields need at least two correlation ranges")
    components = [
        SquaredExponentialCovariance(range=r, variance=variance) for r in correlation_ranges
    ]
    cov = MixtureCovariance(components, weights=weights)
    generator = GaussianRandomFieldGenerator(GaussianFieldConfig(shape=shape, covariance=cov))
    return generator.sample(seed)
