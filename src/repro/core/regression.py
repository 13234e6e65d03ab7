"""Logarithmic regression of compression ratios on correlation statistics.

The paper quantifies every relationship with the model

.. math::

    CR = \\alpha + \\beta \\log(a) + \\epsilon

where ``a`` is the correlation statistic on the x-axis (global variogram
range, std of local ranges, std of local SVD truncation levels) and the
estimated coefficients :math:`\\alpha, \\beta` are reported in every figure
legend.  The fit is ordinary least squares on ``log(a)`` — the paper uses
NumPy's ``polyfit`` for the same purpose.

:class:`LogRegressionFit` also carries goodness-of-fit summaries (R^2,
residual standard deviation) used by the benchmarks to check the paper's
qualitative claims (e.g. single-range Gaussian fields fit better than
multi-range ones; smaller error bounds show less dispersion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["LogRegressionFit", "fit_log_regression"]


@dataclass(frozen=True)
class LogRegressionFit:
    """Fitted logarithmic regression ``CR = alpha + beta * log(x)``.

    Attributes
    ----------
    alpha, beta:
        Estimated intercept and slope (the legend values in the paper's
        figures).
    r_squared:
        Coefficient of determination of the fit.
    residual_std:
        Standard deviation of the residuals (the "dispersion around the
        fitted curve" the paper discusses per error bound).
    n_points:
        Number of (x, CR) pairs used.
    log_base:
        Base of the logarithm (natural log by default, matching the model
        as written in the paper).
    """

    alpha: float
    beta: float
    r_squared: float
    residual_std: float
    n_points: int
    log_base: float = float(np.e)


def fit_log_regression(
    x: Sequence[float],
    cr: Sequence[float],
    *,
    log_base: float = np.e,
    weights: Optional[Sequence[float]] = None,
) -> LogRegressionFit:
    """Least-squares fit of ``CR = alpha + beta * log(x)``.

    Parameters
    ----------
    x:
        Correlation statistic values (must be strictly positive; pairs with
        non-positive or non-finite entries are dropped, which mirrors how
        degenerate windows/fields are excluded in the study).
    cr:
        Compression ratios.
    log_base:
        Base of the logarithm (e for the paper's model; 10 or 2 are
        occasionally convenient for plotting).
    weights:
        Optional per-point weights for a weighted least-squares fit.
    """

    x_arr = np.asarray(x, dtype=np.float64).ravel()
    cr_arr = np.asarray(cr, dtype=np.float64).ravel()
    if x_arr.shape != cr_arr.shape:
        raise ValueError(f"x and cr must have equal length, got {x_arr.size} and {cr_arr.size}")
    if log_base <= 0 or log_base == 1.0:
        raise ValueError("log_base must be positive and != 1")

    mask = np.isfinite(x_arr) & np.isfinite(cr_arr) & (x_arr > 0)
    if weights is not None:
        w_arr = np.asarray(weights, dtype=np.float64).ravel()
        if w_arr.shape != x_arr.shape:
            raise ValueError("weights must have the same length as x")
        mask &= np.isfinite(w_arr) & (w_arr > 0)
    x_arr, cr_arr = x_arr[mask], cr_arr[mask]
    if weights is not None:
        w_arr = np.asarray(weights, dtype=np.float64).ravel()[mask]
    else:
        w_arr = np.ones_like(x_arr)
    if x_arr.size < 2:
        raise ValueError("need at least 2 valid (x, CR) pairs to fit a regression")

    log_x = np.log(x_arr) / np.log(log_base)
    design = np.column_stack([np.ones_like(log_x), log_x])
    sqrt_w = np.sqrt(w_arr)
    coeffs, _, _, _ = np.linalg.lstsq(design * sqrt_w[:, None], cr_arr * sqrt_w, rcond=None)
    alpha, beta = float(coeffs[0]), float(coeffs[1])

    predicted = alpha + beta * log_x
    residuals = cr_arr - predicted
    ss_res = float(np.sum(w_arr * residuals**2))
    weighted_mean = float(np.average(cr_arr, weights=w_arr))
    ss_tot = float(np.sum(w_arr * (cr_arr - weighted_mean) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    residual_std = float(np.sqrt(ss_res / w_arr.sum()))

    return LogRegressionFit(
        alpha=alpha,
        beta=beta,
        r_squared=r_squared,
        residual_std=residual_std,
        n_points=int(x_arr.size),
        log_base=float(log_base),
    )
