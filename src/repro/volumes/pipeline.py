"""Tiled compression pipeline for 3D volumes.

The paper's application data is volumetric (Miranda hydrodynamics
snapshots); with the dimension-general block-codec engine the compressors
accept 3D arrays natively, and this module supplies the scale-out layer
around them:

* :func:`compress_volume` runs the axis-aligned tiles (edge tiles may be
  smaller — the compressors pad internally) of the volume's
  :class:`~repro.utils.schedule.TilePlan` through the tile encode worker
  the array store runs too (:mod:`repro.compressors.tiles`) on a
  :class:`~repro.utils.schedule.WaveExecutor` — inline, or over a
  :class:`repro.utils.parallel.ParallelConfig` pool;
* :func:`decompress_volume` replays the same plan into the output volume
  through the tile decode worker, halo tiles borrowing their lenders'
  faces and contexts as on compress;
* :func:`slice_baseline` is the paper's original slice-by-slice procedure,
  kept as the comparison baseline for the native volume path.

:mod:`repro.volumes.streaming` runs the same encoder and decoder over the
same plan grouped slab-major, one slab resident at a time.  Experiment
sweeps do not tile: :func:`repro.core.experiment.measure_field` compresses
a volume whole, like a 2D field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterator, List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.compressors.base import CompressedField
from repro.compressors.halo import reconstruction_faces
from repro.compressors.registry import make_compressor
from repro.compressors.tiles import (
    DecodedTile,
    DecodeTask,
    EncodedTile,
    EncodeTask,
    borrowed_halo,
    decode_tile,
    encode_tile,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.pressio.metrics import CompressionMetrics, error_statistics
from repro.utils.parallel import ParallelConfig
from repro.utils.schedule import PlanTile, TilePlan, WaveExecutor
from repro.utils.validation import ensure_ndim, ensure_positive

__all__ = [
    "VolumeTile",
    "CompressedVolume",
    "compress_volume",
    "decompress_volume",
    "volume_metrics",
    "slice_baseline",
]

#: Default tile edge; 64^3 float64 tiles are 2 MB — large enough that the
#: per-tile container overhead vanishes, small enough to parallelise.
DEFAULT_TILE_SHAPE = (64, 64, 64)

def _record_compress(result: "CompressedVolume", began: float) -> "CompressedVolume":
    """Publish one compress_volume call into the process-wide registry.

    Tile throughput and end-to-end latency of the wave/tile path, by
    compressor — the numbers the serve layer's metrics history and
    ``/debug`` dashboard chart for ingest-heavy workloads.
    """

    labels = {"compressor": result.compressor}
    REGISTRY.counter(
        "repro_volume_tiles_compressed_total",
        len(result.tiles),
        labels,
        help="Tiles processed by compress_volume, by compressor.",
    )
    REGISTRY.observe(
        "repro_volume_compress_seconds",
        time.perf_counter() - began,
        labels,
        help="compress_volume wall time by compressor.",
    )
    return result


@dataclass(frozen=True)
class VolumeTile:
    """One compressed tile and its position in the volume."""

    offset: Tuple[int, int, int]
    compressed: CompressedField


@dataclass(frozen=True)
class CompressedVolume:
    """A tiled compressed volume: the tiles plus bookkeeping.

    ``halo`` marks a halo-aware volume: tiles were compressed against
    their low-face neighbours' reconstructed planes and entropy contexts
    (wavefront order), and :func:`decompress_volume` must replay the same
    chain — tiles of a halo volume are not independently decodable.
    """

    shape: Tuple[int, int, int]
    tile_shape: Tuple[int, int, int]
    compressor: str
    error_bound: float
    tiles: Tuple[VolumeTile, ...]
    halo: bool = False

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def original_nbytes(self) -> int:
        return sum(tile.compressed.original_nbytes for tile in self.tiles)

    @property
    def compressed_nbytes(self) -> int:
        return sum(tile.compressed.compressed_nbytes for tile in self.tiles)

    @property
    def compression_ratio(self) -> float:
        compressed = self.compressed_nbytes
        if compressed == 0:
            return float("inf")
        return self.original_nbytes / compressed


def _check_volume(volume: np.ndarray) -> np.ndarray:
    return ensure_ndim(volume, (3,), "volume")


def _check_tile_shape(tile_shape: Sequence[int]) -> Tuple[int, int, int]:
    tile = tuple(int(t) for t in tile_shape)
    if len(tile) != 3:
        raise ValueError(f"tile_shape must have 3 entries, got {tile_shape}")
    for edge in tile:
        ensure_positive(edge, "tile edge")
    return tile


def _local(tile: PlanTile, origin: Sequence[int]) -> Tuple[slice, ...]:
    """The tile's region in a window whose corner is ``origin``."""

    return tuple(
        slice(o - g, o - g + e) for o, e, g in zip(tile.offset, tile.extent, origin)
    )


def _windows(plan: TilePlan, shape: Sequence[int], rows: int, stream: bool):
    """``(row_start, n_rows, waves)``: the whole volume, or one per slab.

    One-shot runs take the dependency-depth waves (anti-diagonals) over
    the whole volume; streams take the slab-major waves cut at slab
    boundaries.  Wave ids stay plan-global either way.
    """

    waves = list(enumerate(plan.waves(slab_major=stream)))
    if not stream:
        return [(0, shape[0], waves)]
    return [
        (row_start, min(rows, shape[0] - row_start), list(group))
        for row_start, group in groupby(
            waves, key=lambda wave: plan.tiles[wave[1][0]].offset[0]
        )
    ]


def _encode_volume(
    read: Callable[[int, int], np.ndarray],
    shape: Tuple[int, int, int],
    compressor: str,
    error_bound: float,
    tile: Tuple[int, int, int],
    parallel: Optional[ParallelConfig],
    halo: bool,
    *,
    stream: bool,
) -> CompressedVolume:
    """Compress a volume window by window: whole (one-shot) or per slab.

    ``read(row_start, rows)`` returns a window's rows.  A window is
    released before the next one is read, so a stream's peak holds one
    slab.
    """

    ensure_positive(error_bound, "error_bound")
    began = time.perf_counter()
    plan = TilePlan.wavefront(shape, tile, halo=halo)
    windows = _windows(plan, shape, tile[0], stream)
    payloads: List[Optional[CompressedField]] = [None] * len(plan.tiles)

    def done(index: int, result: EncodedTile):
        payloads[index] = result.compressed
        return result.faces, result.context

    with WaveExecutor(plan, parallel) as executor, obs_span(
        "volume.compress.stream" if stream else "volume.compress",
        "volume",
        compressor=compressor,
        tiles=len(plan.tiles),
        halo=halo,
        slabs=len(windows),
    ):

        def run_window(row_start: int, rows: int, waves) -> None:
            window = read(row_start, rows)
            origin = (row_start, 0, 0)

            def build(index: int, plan_tile: PlanTile) -> EncodeTask:
                return EncodeTask(
                    window[_local(plan_tile, origin)],
                    error_bound,
                    (compressor,),
                    False,
                    0,
                    borrowed_halo(plan_tile, executor.results),
                    halo,
                )

            executor.run_waves(encode_tile, waves, build, done=done)

        for row_start, rows, waves in windows:
            run_window(row_start, rows, waves)

    return _record_compress(
        CompressedVolume(
            shape=tuple(int(s) for s in shape),
            tile_shape=tile,
            compressor=compressor,
            error_bound=float(error_bound),
            tiles=tuple(
                VolumeTile(offset=plan_tile.offset, compressed=payload)
                for plan_tile, payload in zip(plan.tiles, payloads)
            ),
            halo=halo,
        ),
        began,
    )


def _decode_volume(
    compressed: CompressedVolume,
    parallel: Optional[ParallelConfig],
    *,
    stream: bool,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Decode a volume window by window: whole (one-shot) or per slab.

    Yields ``(row_start, values)``.  Halo tiles borrow from their
    lenders' faces, which the executor keeps until the last borrower is
    built, so a stream holds one slab plus the previous slab's lent
    faces.
    """

    shape = compressed.shape
    plan = TilePlan.wavefront(shape, compressed.tile_shape, halo=compressed.halo)
    payloads = {tile.offset: tile.compressed.data for tile in compressed.tiles}

    with WaveExecutor(plan, parallel, tile_span="volume.tile.decode") as executor:

        def build(index: int, tile: PlanTile) -> DecodeTask:
            return DecodeTask(
                payloads[tile.offset],
                compressed.compressor,
                tile.extent,
                compressed.error_bound,
                borrowed_halo(tile, executor.results),
                compressed.halo,
            )

        def run_window(row_start: int, rows: int, waves) -> np.ndarray:
            origin = (row_start, 0, 0)
            window = np.empty((rows,) + tuple(shape[1:]), np.float64)

            def done(index: int, result: DecodedTile):
                values, context = result
                window[_local(plan.tiles[index], origin)] = values
                return (reconstruction_faces(values) if compressed.halo else {}), context

            with obs_span(
                "volume.decompress",
                "volume",
                compressor=compressed.compressor,
                tiles=sum(len(indices) for _, indices in waves),
                halo=compressed.halo,
            ):
                executor.run_waves(decode_tile, waves, build, done=done)
            return window

        for row_start, rows, waves in _windows(
            plan, shape, compressed.tile_shape[0], stream
        ):
            yield row_start, run_window(row_start, rows, waves)


def compress_volume(
    volume: np.ndarray,
    compressor: str = "sz",
    error_bound: float = 1e-3,
    *,
    tile_shape: Sequence[int] = DEFAULT_TILE_SHAPE,
    parallel: Optional[ParallelConfig] = None,
    cache: Literal[False, None] = None,
    halo: bool = False,
) -> CompressedVolume:
    """Compress a 3D volume tile by tile.

    Every tile is compressed; ``cache`` accepts only ``None`` or
    ``False``: nothing is memoized.

    ``parallel`` runs each wave's tiles over a worker pool; every task
    carries its own tile.  The bytes never depend on the schedule.

    ``halo=True`` turns on halo-aware tiling: tiles are scheduled in
    wavefront order (anti-diagonals of the tile grid — every tile's
    low-face neighbours belong to an earlier wave, tiles within a wave
    stay independent and parallelise as before), and each tile compresses
    against a :class:`~repro.compressors.halo.TileHalo` of its neighbours'
    reconstructed faces and entropy context.  This recovers the cross-tile
    correlation and entropy-coder amortisation that independent tiles
    lose; the tiles are then only decodable through
    :func:`decompress_volume`'s matching replay.
    """

    if cache is not None and cache is not False:
        raise TypeError(f"cache must be None or False, got {cache!r}")
    vol = _check_volume(volume)
    return _encode_volume(
        lambda row_start, rows: vol,
        vol.shape,
        compressor,
        error_bound,
        _check_tile_shape(tile_shape),
        parallel,
        halo,
        stream=False,
    )


def decompress_volume(
    compressed: CompressedVolume,
    *,
    parallel: Optional[ParallelConfig] = None,
) -> np.ndarray:
    """Reassemble the volume from its compressed tiles.

    Replays the compress-side plan: every halo tile decodes after its
    low-face neighbours, taking its halo planes from the faces they lent
    and regenerating its own entropy context — bit-identical to what the
    encoder saw, by construction.

    ``parallel`` decodes the tiles of each anti-diagonal wave
    concurrently; each task carries its halo and returns its values and
    what it lends, which are kept before the next wave is built.  The
    output never depends on the schedule.
    """

    ((_, volume),) = _decode_volume(compressed, parallel, stream=False)
    return volume


def volume_metrics(
    volume: np.ndarray,
    compressed: CompressedVolume,
    reconstruction: Optional[np.ndarray] = None,
) -> CompressionMetrics:
    """Volume-level :class:`CompressionMetrics` (the tiled analogue of
    :func:`repro.pressio.metrics.evaluate_metrics`)."""

    vol = np.asarray(_check_volume(volume), dtype=np.float64)
    if reconstruction is None:
        reconstruction = decompress_volume(compressed)
    max_abs_error, rmse, value_range, psnr = error_statistics(vol, reconstruction)
    return CompressionMetrics(
        compression_ratio=compressed.compression_ratio,
        bit_rate=8.0 * compressed.compressed_nbytes / vol.size,
        max_abs_error=max_abs_error,
        rmse=rmse,
        psnr=psnr,
        value_range=value_range,
        error_bound=compressed.error_bound,
        bound_satisfied=max_abs_error <= compressed.error_bound * (1.0 + 1e-9),
    )


def slice_baseline(
    volume: np.ndarray,
    compressor: str = "sz",
    error_bound: float = 1e-3,
    *,
    axis: int = 0,
) -> float:
    """Compression ratio of the paper's slice-by-slice procedure.

    Every plane along ``axis`` is compressed independently as a 2D field;
    the aggregate CR is the comparison baseline for the native volume
    pipeline (which sees cross-slice correlation the baseline cannot).
    """

    vol = _check_volume(volume)
    codec = make_compressor(compressor, error_bound)
    original = 0
    compressed = 0
    for index in range(vol.shape[axis]):
        plane = np.ascontiguousarray(np.take(vol, index, axis=axis))
        result = codec.compress(plane)
        original += result.original_nbytes
        compressed += result.compressed_nbytes
    return original / compressed if compressed else float("inf")
