"""Bounded-memory streaming over the tiled volume pipeline.

:func:`repro.volumes.pipeline.compress_volume` needs the whole volume
resident; the paper's target snapshots are exactly the arrays where that
is the limiting cost.  This module streams the same pipeline slab by slab
— a slab is ``tile_shape[0]`` rows — running the volume's
:class:`~repro.utils.schedule.TilePlan` grouped slab-major: every wave of
a slab finishes before the next slab is read, and the executor drops a
tile's faces and context once the last tile borrowing them is built.
Peak memory therefore holds at most

* the current slab,
* the faces and entropy contexts the previous slab's tiles lent, until
  the last tile borrowing them is built,

regardless of volume depth — on compress and on decode alike, since both
run the same tile workers (:mod:`repro.compressors.tiles`).  The outputs
are **bit-identical** to the one-shot pipeline: slab-major and
anti-diagonal waves are two topological orders of the same plan, and
halo planes and entropy contexts do not depend on the order.

Sources are ``.npy`` paths, read with explicit per-slab ``seek`` +
:func:`numpy.fromfile` rather than :func:`numpy.memmap`: mapped pages
count toward RSS until the OS reclaims them, which would defeat the
memory bound this module exists to provide (and which
``benchmarks/test_bars.py::test_stream_peak_rss`` gates).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import (
    DEFAULT_TILE_SHAPE,
    CompressedVolume,
    _check_tile_shape,
    _decode_volume,
    _encode_volume,
)

__all__ = [
    "npy_volume_info",
    "open_slab_source",
    "compress_volume_stream",
    "decompress_volume_stream",
]


def npy_volume_info(path) -> Tuple[Tuple[int, ...], np.dtype, int]:
    """Parse an ``.npy`` header: ``(shape, dtype, data_offset)``.

    Only C-order arrays are accepted — slab reads rely on rows being
    contiguous on disk.
    """

    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValueError(f"unsupported .npy format version {version} in {path}")
        if fortran:
            raise ValueError(
                f"{path} is Fortran-ordered; streaming needs C-order rows"
            )
        return tuple(int(s) for s in shape), np.dtype(dtype), handle.tell()


class _NpySlabSource:
    """Slab reader over a C-order 3D ``.npy`` file (seek + fromfile)."""

    def __init__(self, path) -> None:
        self.path = path
        self.shape, self.dtype, self._data_offset = npy_volume_info(path)
        if len(self.shape) != 3:
            raise ValueError(
                f"streaming expects a 3D volume, got shape {self.shape} in {path}"
            )
        self._row_nbytes = (
            int(np.prod(self.shape[1:], dtype=np.int64)) * self.dtype.itemsize
        )

    def read(self, row_start: int, rows: int) -> np.ndarray:
        count = rows * int(np.prod(self.shape[1:], dtype=np.int64))
        with open(self.path, "rb") as handle:
            handle.seek(self._data_offset + row_start * self._row_nbytes)
            flat = np.fromfile(handle, dtype=self.dtype, count=count)
        if flat.size != count:
            raise ValueError(
                f"{self.path}: truncated read at rows "
                f"[{row_start}, {row_start + rows})"
            )
        return flat.reshape((rows,) + self.shape[1:])


def open_slab_source(path) -> _NpySlabSource:
    """A slab reader for a C-order 3D ``.npy`` file.

    Each slab is read with an explicit ``seek``/``fromfile``, which is
    what gives a stream its memory bound.
    """

    return _NpySlabSource(path)


def compress_volume_stream(
    path,
    compressor: str = "sz",
    error_bound: float = 1e-3,
    *,
    tile_shape: Sequence[int] = DEFAULT_TILE_SHAPE,
    parallel: Optional[ParallelConfig] = None,
    halo: bool = False,
) -> CompressedVolume:
    """Compress a volume slab by slab; bit-identical to ``compress_volume``.

    ``path`` names a C-order 3D ``.npy`` file.  With ``parallel``, each
    slab's tiles fan out over the pool, every task carrying its own tile;
    the in-slab schedule is the 2D wavefront over the remaining axes, so
    the halo chain sees tiles in a valid wavefront order either way.
    """

    reader = open_slab_source(path)
    return _encode_volume(
        reader.read,
        reader.shape,
        compressor,
        error_bound,
        _check_tile_shape(tile_shape),
        parallel,
        halo,
        stream=True,
    )


def decompress_volume_stream(
    compressed: CompressedVolume,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(row_start, slab)`` reconstructions in slab order.

    The streaming counterpart of
    :func:`repro.volumes.pipeline.decompress_volume`: at most one slab is
    resident, plus the faces and entropy contexts the previous slab's
    halo tiles lent.  Slabs concatenated along axis 0 are bit-identical
    to the one-shot decode.
    """

    yield from _decode_volume(compressed, None, stream=True)
