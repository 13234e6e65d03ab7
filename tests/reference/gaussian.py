"""Dense Cholesky sampling of a Gaussian random field.

O((rows*cols)^3), so small grids only: the ground truth the tests
compare the program's circulant-embedding FFT sampler
(``repro.datasets.gaussian``) against.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.gaussian import GaussianFieldConfig
from repro.utils.rng import SeedLike, make_rng


def sample_cholesky(
    config: GaussianFieldConfig, seed: SeedLike = None, jitter: float = 1e-10
) -> np.ndarray:
    """One realisation of ``config``'s field by dense Cholesky factorisation."""

    rows, cols = config.shape
    n = rows * cols
    if n > 64 * 64:
        raise ValueError(f"sample_cholesky is limited to 4096 grid points, got {n}")
    rng = make_rng(seed)
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    coords = np.column_stack([ii.ravel(), jj.ravel()]).astype(np.float64)
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    cov = config.covariance(dist)
    cov[np.diag_indices_from(cov)] += jitter
    z = rng.normal(size=n)
    return (np.linalg.cholesky(cov) @ z).reshape(rows, cols) + config.mean
