"""The tile workers: one encode and one decode worker for every tiled path.

Volumes (:mod:`repro.volumes.pipeline`, one-shot and streamed) and the
array store (:mod:`repro.store.array_store` writes,
:mod:`repro.store.snapshot` reads) all run a
:class:`~repro.utils.schedule.TilePlan` through a
:class:`~repro.utils.schedule.WaveExecutor`, and every one of them
submits :func:`encode_tile` or :func:`decode_tile`.  Both are top-level
and take self-contained tasks, so they pickle for process pools.

A tile that **lends** gives its plan's borrowers the high faces of its
reconstruction and its entropy context.  The encode worker returns both
(the reconstruction itself stays in the worker); a decoded tile's
values come back anyway, so the caller takes its faces from them.  The
callers keep ``(faces, context)`` in the executor's results, and
:func:`borrowed_halo` turns a tile's lenders' entries into its
:class:`~repro.compressors.halo.TileHalo` — the same rule on every path,
so encoder and decoder see the same halo by construction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.compressors.base import CompressedField
from repro.compressors.halo import TileHalo, reconstruction_faces
from repro.compressors.registry import make_compressor

__all__ = [
    "RAW_CODEC",
    "EncodeTask",
    "EncodedTile",
    "encode_tile",
    "DecodeTask",
    "DecodedTile",
    "decode_tile",
    "borrowed_halo",
]

#: Codec tag of tiles stored as exact little-endian float64 bytes.
RAW_CODEC = "raw"

Faces = Dict[int, np.ndarray]


class EncodeTask(NamedTuple):
    """One tile of :func:`encode_tile`'s work."""

    #: The tile's values (a view is fine: pickling copies just the tile).
    tile: np.ndarray
    error_bound: float
    #: Codecs to try; the smallest payload wins, the first listed a tie.
    candidates: Tuple[str, ...]
    #: Extra factory kwargs, by codec name.
    options: Dict[str, Dict]
    #: Attach the tile's moments and variogram range to its stats.
    chunk_stats: bool
    #: Leading axis-0 rows that must reconstruct exactly (0: none).
    exact_rows: int
    halo: Optional[TileHalo]
    lends: bool


class EncodedTile(NamedTuple):
    """:func:`encode_tile`'s result."""

    #: The winning codec's field, without its reconstruction and context.
    compressed: CompressedField
    stats: Dict[str, float]
    #: High faces of the reconstruction; empty unless the tile lends.
    faces: Faces
    context: Optional[object]


def _statistics(tile: np.ndarray) -> Dict[str, float]:
    """Cheap moments plus the tile's (2D or 3D) variogram range.

    Each store chunk is one window of the paper's windowed analysis, so
    the per-chunk variogram range is the store-scale version of the
    local correlation statistics (Fig. 7); NaN where the fit is
    impossible (constant or too-small chunks).
    """

    stats = {
        "mean": float(tile.mean()),
        "std": float(tile.std()),
        "variogram_range": float("nan"),
    }
    if min(tile.shape) >= 8:
        try:
            from repro.stats.variogram_models import estimate_variogram_range

            stats["variogram_range"] = float(estimate_variogram_range(tile))
        except (ValueError, RuntimeError):
            pass
    return stats


def _raw_result(tile: np.ndarray, error_bound: float) -> CompressedField:
    """The tile stored verbatim under :data:`RAW_CODEC`."""

    values = np.asarray(tile, dtype=np.float64)
    return CompressedField(
        data=np.ascontiguousarray(values, dtype="<f8").tobytes(),
        original_shape=values.shape,
        original_dtype=values.dtype,
        compressor=RAW_CODEC,
        error_bound=error_bound,
        reconstruction=values,
    )


def encode_tile(task: EncodeTask) -> EncodedTile:
    """The tile encode worker (top-level, picklable).

    The tile is compressed against ``halo`` with each candidate codec,
    keeping the smallest payload.  ``exact_rows`` marks leading axis-0
    rows that hold previously-stored (already once-lossy) data: the
    winner's reconstruction must reproduce them bit-for-bit, otherwise
    the tile falls back to :data:`RAW_CODEC` — a store's error bound is
    relative to the data as first written, and a second lossy pass over
    those rows would let the error drift up to twice the bound.

    The reconstruction is dropped (it would double the IPC payload);
    only a lending tile's faces and entropy context travel back.
    """

    tile = task.tile
    best = None
    for name in task.candidates:
        codec = make_compressor(name, task.error_bound, **task.options.get(name, {}))
        compressed = codec.compress(tile, halo=task.halo, collect_context=task.lends)
        if best is None or compressed.compressed_nbytes < best.compressed_nbytes:
            best = compressed
    rows = task.exact_rows
    if rows and not np.array_equal(best.reconstruction[:rows], tile[:rows]):
        best = _raw_result(tile, task.error_bound)
    reconstruction = best.reconstruction
    stats = _statistics(tile) if task.chunk_stats else {}
    # The max-error formula of repro.pressio.metrics.error_statistics.
    error = reconstruction - tile
    stats["max_abs_error"] = float(np.abs(error, out=error).max())
    return EncodedTile(
        replace(best, reconstruction=None, entropy_context=None),
        stats,
        reconstruction_faces(reconstruction) if task.lends else {},
        best.entropy_context if task.lends else None,
    )


class DecodeTask(NamedTuple):
    """One tile of :func:`decode_tile`'s work."""

    #: Payload bytes, or — on a serial store read, where the worker runs
    #: in the reading process — a call that reads them on demand, so
    #: cache hits never touch the data and a corrupt chunk fails where
    #: the decode reaches it.
    payload: Union[bytes, Callable[[], bytes]]
    codec: str
    extent: Tuple[int, ...]
    error_bound: float
    options: Dict
    halo: Optional[TileHalo]
    #: Decode the entropy context too (borrowers take it, and the caller
    #: takes the faces from the returned values).
    lends: bool


class DecodedTile(NamedTuple):
    """:func:`decode_tile`'s result."""

    values: np.ndarray
    #: The tile's entropy context; None unless the tile lends.
    context: Optional[object]


def decode_tile(task: DecodeTask) -> DecodedTile:
    """The tile decode worker (top-level, picklable).

    Decodes one payload against ``halo`` (its lenders decoded in an
    earlier wave).  A payload that does not decode to ``extent`` raises
    :class:`~repro.store.format.StoreCorruptionError`.
    """

    # Imported here: the store package imports this module.
    from repro.store.format import StoreCorruptionError

    payload = task.payload() if callable(task.payload) else task.payload
    context = None
    if task.codec == RAW_CODEC:
        expected = int(np.prod(task.extent)) * 8
        if len(payload) != expected:
            raise StoreCorruptionError(
                f"raw chunk payload of {len(payload)} bytes, expected {expected}"
            )
        values = np.frombuffer(payload, dtype="<f8").reshape(task.extent)
    else:
        codec = make_compressor(task.codec, task.error_bound, **task.options)
        compressed = CompressedField(
            data=payload,
            original_shape=task.extent,
            original_dtype=np.dtype(np.float64),
            compressor=task.codec,
            error_bound=task.error_bound,
        )
        if task.lends:
            values, context = codec.decompress_with_context(compressed, halo=task.halo)
        else:
            values = codec.decompress(compressed, halo=task.halo)
        if tuple(values.shape) != tuple(task.extent):
            raise StoreCorruptionError(
                f"chunk decoded to shape {values.shape}, expected {task.extent}"
            )
    return DecodedTile(values, context)


def borrowed_halo(tile, lent: Dict[int, Tuple[Faces, object]]) -> Optional[TileHalo]:
    """The halo a :class:`~repro.utils.schedule.PlanTile` borrows.

    ``lent`` maps plan indices to the ``(faces, context)`` their tiles
    lent (a :class:`~repro.utils.schedule.WaveExecutor`'s ``results``):
    the tile takes the facing plane of each plane source and the
    context of its reference tile.  ``None`` when it borrows nothing.
    """

    if not tile.deps:
        return None
    planes = [
        None if dep is None else lent[dep][0].get(axis)
        for axis, dep in enumerate(tile.planes)
    ]
    context = None if tile.context is None else lent[tile.context][1]
    return TileHalo.build(planes, context)
