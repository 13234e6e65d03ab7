"""Native 3D volume compression pipeline (tiling, parallel workers, metrics)."""

from repro.volumes.pipeline import (
    CompressedVolume,
    VolumeTile,
    compress_volume,
    decompress_volume,
    measure_volume_field,
    shard_volume,
    slice_baseline,
    tile_offsets,
    volume_metrics,
)
from repro.volumes.streaming import (
    compress_volume_stream,
    decompress_volume_stream,
    npy_volume_info,
    open_slab_source,
)

__all__ = [
    "CompressedVolume",
    "VolumeTile",
    "compress_volume",
    "compress_volume_stream",
    "decompress_volume",
    "decompress_volume_stream",
    "measure_volume_field",
    "npy_volume_info",
    "open_slab_source",
    "shard_volume",
    "slice_baseline",
    "tile_offsets",
    "volume_metrics",
]
