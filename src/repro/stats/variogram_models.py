"""Parametric variogram models and least-squares range estimation.

The paper fits the squared-exponential (often called "Gaussian") variogram

.. math::

    \\gamma(h) = c_0 \\left(1 - \\exp(-h^2 / a^2)\\right)

to the empirical variogram by least squares and reports the fitted *range*
``a`` (the distance beyond which spatial correlation essentially vanishes).
This module implements that fit plus the exponential and spherical
families and an optional nugget term, mirroring what the ``gstat`` R
package provides.

The weighted least-squares problem is solved without an iterative
optimiser.  With the range fixed, every model is linear in the sill (and
in the nugget), so those have a closed form: a ratio of weighted sums
clamped to the sill's lower bound, or, with a nugget, a 2x2 solve whose
box-constrained optimum is the best of the interior solution and the
three edge solutions.  What is left is a 1-D search over the range: a
log-spaced grid over ``[1e-6, 10 * max lag]``, then a few zoom grids,
each one spacing either side of the best point so far.  Every level is
one vectorised evaluation (no step-by-step loop), the best point always
stays a candidate, and it runs on stacked ``(n, bins)`` variograms at
once, so the paper's windowed statistic fits all windows of a field
together.

The headline public entry point is :func:`estimate_variogram_range`, which
goes straight from a 2D field or 3D volume to the fitted range — this is
the statistic on the x-axis of the paper's Figures 3 and 4;
:func:`variogram_ranges` does the same for a stack of equal-shape fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.stats.variogram import (
    EmpiricalVariogram,
    VariogramConfig,
    _variogram_batches,
)
from repro.utils.validation import ensure_in

__all__ = [
    "VariogramModel",
    "FittedVariogram",
    "gaussian_variogram",
    "exponential_variogram",
    "spherical_variogram",
    "fit_variogram",
    "estimate_variogram_range",
    "variogram_ranges",
    "MODEL_FUNCTIONS",
]

#: Bounds of the fitted parameters: the sill is at least ``MIN_SILL``,
#: the range lies in ``[MIN_RANGE, MAX_RANGE_LAGS * largest lag]`` and
#: the nugget in ``[0, max(variance, largest value)]``.
MIN_SILL = 1e-12
MIN_RANGE = 1e-6
MAX_RANGE_LAGS = 10.0
#: The range search: a log grid, then zoom grids of ``ZOOM_POINTS`` over
#: one spacing either side of the best point so far (each divides the
#: log spacing by 64; four leave ~5e-9 of the range).
GRID_POINTS = 257
ZOOM_POINTS = 129
ZOOM_LEVELS = 4
#: Zoom offsets in units of the spacing; the centre one is exactly 0.
_ZOOM = np.linspace(-1.0, 1.0, ZOOM_POINTS)


def gaussian_variogram(h: np.ndarray, sill: float, range_: float, nugget: float = 0.0) -> np.ndarray:
    """Squared-exponential ("Gaussian") variogram — the paper's model."""

    h = np.asarray(h, dtype=np.float64)
    return nugget + sill * (1.0 - np.exp(-(h**2) / (range_**2)))


def exponential_variogram(h: np.ndarray, sill: float, range_: float, nugget: float = 0.0) -> np.ndarray:
    """Exponential variogram ``nugget + sill * (1 - exp(-h / range))``."""

    h = np.asarray(h, dtype=np.float64)
    return nugget + sill * (1.0 - np.exp(-h / range_))


def spherical_variogram(h: np.ndarray, sill: float, range_: float, nugget: float = 0.0) -> np.ndarray:
    """Spherical variogram: reaches the sill exactly at ``range``."""

    h = np.asarray(h, dtype=np.float64)
    ratio = np.clip(h / range_, 0.0, 1.0)
    return nugget + sill * (1.5 * ratio - 0.5 * ratio**3)


MODEL_FUNCTIONS: Dict[str, Callable[..., np.ndarray]] = {
    "gaussian": gaussian_variogram,
    "exponential": exponential_variogram,
    "spherical": spherical_variogram,
}

#: Alias accepted for the paper's model name.
VariogramModel = str


@dataclass(frozen=True)
class FittedVariogram:
    """Result of a parametric variogram fit.

    Attributes
    ----------
    model:
        Name of the fitted family (``"gaussian"``, ``"exponential"``,
        ``"spherical"``).
    sill:
        Fitted partial sill :math:`c_0`.
    range:
        Fitted range ``a`` — the statistic the paper regresses CR against.
    nugget:
        Fitted nugget (0 when fitted without a nugget term).
    rmse:
        Root-mean-square misfit between the empirical and fitted variogram.
    converged:
        Whether the fit reached a finite misfit (always, for finite data).
    """

    model: str
    sill: float
    range: float
    nugget: float
    rmse: float
    converged: bool

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """Evaluate the fitted variogram at distances ``h``."""

        return MODEL_FUNCTIONS[self.model](np.asarray(h), self.sill, self.range, self.nugget)

    @property
    def effective_range(self) -> float:
        """Distance at which the model reaches 95% of the sill."""

        if self.model == "spherical":
            return self.range
        if self.model == "exponential":
            return float(self.range * np.log(20.0))
        return float(self.range * np.sqrt(np.log(20.0)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast dot product over the last (lag) axis, with no broadcast temporary."""

    return np.einsum("...b,...b->...", a, b)


def _profile(
    shape: np.ndarray,
    values: np.ndarray,
    w2: np.ndarray,
    nugget_cap: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best ``(sill, nugget, misfit)`` of ``nugget + sill * shape`` against ``values``.

    ``shape`` is the unit-sill model at the lags (last axis) for fixed
    ranges; it broadcasts against ``values``, and ``w2`` are the squared
    residual weights.  Without a nugget (``nugget_cap`` None) the sill is
    the weighted ratio clamped to :data:`MIN_SILL`.  With one, the
    misfit is a convex quadratic over ``sill >= MIN_SILL, 0 <= nugget <=
    nugget_cap``: its minimum is the unconstrained 2x2 solution when that
    is feasible, otherwise the best 1-D optimum along an edge.  The
    misfit is the weighted sum of squared residuals.
    """

    weighted = shape * w2
    ff, fv = _dot(weighted, shape), _dot(weighted, values)
    if nugget_cap is None:
        sill = np.maximum(fv / ff, MIN_SILL)
        residual = sill[..., None] * shape - values
        return sill, np.zeros_like(sill), _dot(w2 * residual, residual)

    ones, f1, v1 = w2.sum(), weighted.sum(axis=-1), _dot(w2, values)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = ones * ff - f1 * f1
        inner_sill = (ones * fv - f1 * v1) / det
        inner_nugget = (ff * v1 - f1 * fv) / det
    feasible = (inner_sill >= MIN_SILL) & (inner_nugget >= 0.0) & (inner_nugget <= nugget_cap)
    candidates = [
        (np.where(feasible, inner_sill, np.nan), np.where(feasible, inner_nugget, np.nan)),
        (np.maximum(fv / ff, MIN_SILL), 0.0),
        (np.maximum((fv - nugget_cap * f1) / ff, MIN_SILL), nugget_cap),
        (MIN_SILL, np.clip((v1 - MIN_SILL * f1) / ones, 0.0, nugget_cap)),
    ]
    sills, nuggets = (
        np.stack(np.broadcast_arrays(fv, *column)[1:]) for column in zip(*candidates)
    )
    residual = nuggets[..., None] + sills[..., None] * shape - values
    misfit = _dot(w2 * residual, residual)
    best = np.argmin(np.nan_to_num(misfit, nan=np.inf), axis=0)[None]
    return tuple(np.take_along_axis(a, best, axis=0)[0] for a in (sills, nuggets, misfit))


def _fit_stack(
    variogram: EmpiricalVariogram, model: str, fit_nugget: bool, weights: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(sill, range, nugget, misfit)`` per row of a stacked ``variogram``.

    Minimises ``sum(w^2 (model(lags) - values)^2)`` with ``w^2`` the pair
    counts over their maximum (``"pairs"``) or ones.
    """

    lags = np.asarray(variogram.lags, dtype=np.float64)
    values = np.atleast_2d(np.asarray(variogram.values, dtype=np.float64))
    func = MODEL_FUNCTIONS[model]
    counts = np.asarray(variogram.pair_counts, dtype=np.float64)
    w2 = counts / counts.max() if weights == "pairs" else np.ones_like(lags)
    cap = None
    if fit_nugget:
        variance = np.broadcast_to(np.asarray(variogram.field_variance, dtype=np.float64), len(values))
        cap = np.maximum(np.maximum(variance, values.max(axis=1)), 1e-12)

    row_cap = None if cap is None else cap[:, None]

    upper = MAX_RANGE_LAGS * float(lags[-1])
    spacing = np.log(upper / MIN_RANGE) / (GRID_POINTS - 1)
    grid = np.minimum(MIN_RANGE * np.exp(spacing * np.arange(GRID_POINTS)), upper)
    grid_misfit = _profile(func(lags, 1.0, grid[:, None]), values[:, None, :], w2, row_cap)[2]
    best = grid[np.argmin(np.nan_to_num(grid_misfit, nan=np.inf), axis=1)]
    # Each zoom spans one spacing of the previous grid on either side of
    # its best point, in log range; the centre offset is exactly 0, so
    # the best point stays a candidate and the misfit never rises.
    for _ in range(ZOOM_LEVELS):
        candidates = np.clip(best[:, None] * np.exp(spacing * _ZOOM), MIN_RANGE, upper)
        misfit = _profile(func(lags, 1.0, candidates[..., None]), values[:, None, :], w2, row_cap)[2]
        best = candidates[np.arange(len(values)), np.argmin(misfit, axis=1)]
        spacing = 2.0 * spacing / (ZOOM_POINTS - 1)
    sill, nugget, misfit = _profile(func(lags, 1.0, best[:, None]), values, w2, cap)
    return sill, best, nugget, misfit


def fit_variogram(
    variogram: EmpiricalVariogram,
    model: str = "gaussian",
    *,
    fit_nugget: bool = False,
    weights: str = "pairs",
) -> FittedVariogram:
    """Weighted least-squares fit of a parametric model to an empirical variogram.

    Parameters
    ----------
    variogram:
        Output of :func:`repro.stats.variogram.empirical_variogram`.
    model:
        Parametric family; the paper uses ``"gaussian"`` (squared
        exponential).
    fit_nugget:
        Include a nugget parameter.  The paper's synthetic fields have no
        measurement noise so the default is nugget-free.
    weights:
        ``"pairs"`` weights residuals by the square root of the pair count
        per bin (more pairs = more reliable bin), ``"uniform"`` uses no
        weighting — matching an ordinary least squares fit.
    """

    ensure_in(model, tuple(MODEL_FUNCTIONS), "model")
    ensure_in(weights, ("pairs", "uniform"), "weights")
    if variogram.n_bins < 3:
        raise ValueError("need at least 3 variogram bins to fit a model")
    sill, range_, nugget, misfit = _fit_stack(variogram, model, fit_nugget, weights)
    fitted_values = MODEL_FUNCTIONS[model](variogram.lags, sill[0], range_[0], nugget[0])
    rmse = float(np.sqrt(np.mean((fitted_values - variogram.values) ** 2)))
    return FittedVariogram(
        model=model,
        sill=float(sill[0]),
        range=float(range_[0]),
        nugget=float(nugget[0]),
        rmse=rmse,
        converged=bool(np.isfinite(misfit[0])),
    )


def variogram_ranges(
    fields: Sequence[np.ndarray],
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
    fit_nugget: bool = False,
) -> np.ndarray:
    """Fitted variogram range of every field of a stack of equal-shape fields.

    ``fields`` is a sequence of 2D fields or 3D volumes of one shape, or
    an ``(n, *shape)`` array.  With the FFT estimator the variograms are
    estimated and fitted stacked, in batches of bounded memory.  A
    (numerically) constant field has no correlation structure to fit and
    yields NaN, as does a field whose variogram has fewer than 3 bins.
    """

    ensure_in(model, tuple(MODEL_FUNCTIONS), "model")
    ranges = [np.empty(0)]
    for variogram in _variogram_batches(fields, config):
        if variogram.n_bins < 3:
            ranges.append(np.full(len(variogram.values), np.nan))
            continue
        fitted = _fit_stack(variogram, model, fit_nugget, "pairs")[1]
        constant = np.sqrt(variogram.field_variance) < 1e-15
        ranges.append(np.where(constant, np.nan, fitted))
    return np.concatenate(ranges)


def estimate_variogram_range(
    field: np.ndarray,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
    fit_nugget: bool = False,
) -> float:
    """Estimate the (global) variogram range of a 2D field or 3D volume.

    This is the "Estimated global variogram range" of the paper's
    Figures 3 and 4: empirical variogram via Eq. (1), then a weighted
    least-squares fit of the squared-exponential model, returning the
    fitted range ``a``.  A (numerically) constant field, or one too small
    for 3 variogram bins, has no correlation structure to fit and yields
    NaN.
    """

    return float(variogram_ranges([field], model=model, config=config, fit_nugget=fit_nugget)[0])
