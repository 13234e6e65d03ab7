"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

import numpy as np

__all__ = [
    "ensure_2d",
    "ensure_ndim",
    "ensure_positive",
    "ensure_float_array",
    "ensure_in",
]

T = TypeVar("T")


def ensure_2d(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``array`` as a 2D :class:`numpy.ndarray` or raise ``ValueError``."""

    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def ensure_ndim(
    array: np.ndarray, ndims: Iterable[int], name: str = "array"
) -> np.ndarray:
    """Return ``array`` as a non-empty ndarray whose ndim is in ``ndims``."""

    allowed = tuple(ndims)
    arr = np.asarray(array)
    if arr.ndim not in allowed:
        dims = "/".join(f"{d}D" for d in allowed)
        raise ValueError(f"{name} must be {dims}, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def ensure_float_array(array: np.ndarray, name: str = "array", dtype=np.float64) -> np.ndarray:
    """Return ``array`` converted to a floating point ndarray.

    Integer and boolean inputs are promoted; complex inputs are rejected
    because none of the compressors or statistics are defined on them.
    """

    arr = np.asarray(array)
    if np.iscomplexobj(arr):
        raise TypeError(f"{name} must be real-valued, got complex dtype {arr.dtype}")
    return np.asarray(arr, dtype=dtype)


def ensure_positive(value: float, name: str = "value", *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when ``strict=False``)."""

    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_in(value: T, allowed: Sequence[T], name: str = "value") -> T:
    """Validate that ``value`` is one of ``allowed``."""

    if value not in allowed:
        raise ValueError(f"{name} must be one of {list(allowed)}, got {value!r}")
    return value
