"""Dataset I/O helpers.

SDRBench distributes fields as headerless little-endian ``float32``/
``float64`` binaries with the shape documented externally; these helpers
read that layout (so a user who *does* have the original Miranda file can
drop it in) as well as ``.npy`` files.
"""

from __future__ import annotations

import os
from typing import Sequence, Union

import numpy as np

__all__ = ["load_raw", "load_field"]

PathLike = Union[str, os.PathLike]


def load_raw(
    path: PathLike, shape: Sequence[int], dtype: str = "float32"
) -> np.ndarray:
    """Read a headerless little-endian binary of the given ``shape``.

    Raises ``ValueError`` when the file size does not match the expected
    element count — the most common mistake when pointing the loader at an
    SDRBench file with the wrong shape or precision.
    """

    np_dtype = np.dtype(dtype).newbyteorder("<")
    expected = int(np.prod(shape))
    data = np.fromfile(str(path), dtype=np_dtype)
    if data.size != expected:
        raise ValueError(
            f"file {path} holds {data.size} elements of {dtype}, expected "
            f"{expected} for shape {tuple(shape)}"
        )
    return data.reshape(tuple(shape)).astype(np.float64)


def load_field(path: PathLike) -> np.ndarray:
    """Load a ``.npy`` field."""

    return np.load(str(path))
