"""Tiling of a 2D field or 3D volume into square (cubic) windows.

Local correlation statistics (local variogram ranges, local SVD truncation
levels) are computed on non-overlapping ``H x H`` windows covering the
field, following the paper's windowed analysis (H = 32); a volume is tiled
into ``H x H x H`` cubes the same way.  Only complete windows contribute,
matching the tiled-window convention of the reference the paper cites for
the approach.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

import numpy as np

from repro.utils.blocking import window_starts
from repro.utils.validation import ensure_ndim, ensure_positive

__all__ = ["window_grid_shape", "field_windows"]


def window_grid_shape(shape: Tuple[int, ...], window: int) -> Tuple[int, ...]:
    """Number of complete windows along each dimension."""

    ensure_positive(window, "window")
    return tuple(length // window for length in shape)


def field_windows(
    field: np.ndarray, window: int
) -> Iterator[Tuple[Tuple[int, ...], np.ndarray]]:
    """Yield ``(window_index, window_view)`` for every complete ``window`` tile.

    The yielded arrays are views into ``field`` (no copies); callers must
    copy if they mutate.  Windows come in C order of their index.
    """

    field = ensure_ndim(field, (2, 3), "field")
    grid = window_grid_shape(field.shape, window)
    if min(grid) == 0:
        raise ValueError(
            f"field shape {field.shape} is smaller than the window size {window}"
        )
    starts = [window_starts(length, window) for length in field.shape]
    for index, corner in zip(np.ndindex(grid), itertools.product(*starts)):
        yield index, field[tuple(slice(start, start + window) for start in corner)]
