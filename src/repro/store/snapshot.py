"""Immutable store snapshots: the concurrent-reader-safe read path.

An :class:`ArrayStore` directory is replaced in place by writers (append,
write, compact), so a reader that touches ``meta.json`` and ``index.bin``
at different times can observe a torn state — new index with old meta, or
vice versa.  This module makes reads safe without any locking:

* :func:`load_store_state` reads ``meta.json`` and ``index.bin`` into
  memory **once**, and validates that they belong to the same write
  generation: every flush records the SHA-1 of the index bytes inside
  ``meta.json``, and the writer replaces ``index.bin`` *before*
  ``meta.json`` (each atomically via ``os.replace``).  Reading meta first
  therefore detects every torn interleaving as a digest mismatch, which
  is transient and simply retried.
* :class:`StoreSnapshot` is an immutable view over one such consistent
  ``(meta, index)`` pair.  All region decoding lives here;
  :meth:`ArrayStore.read` is a thin delegate that snapshots its own
  in-memory state.  A snapshot taken while another process appends keeps
  decoding the pre-append state — appended payload bytes are strictly
  new ranges of ``chunks.bin``, so old byte ranges stay valid.  (Full
  rewrites — :meth:`ArrayStore.write` / :meth:`ArrayStore.compact` —
  replace payload bytes and need exclusive access; a stale snapshot then
  fails its CRC checks loudly instead of returning garbage.)

Snapshots can also be built over an in-memory payload buffer instead of a
directory (``data=``): the serve layer's client-side-decode mode ships
index records plus the needed payload byte ranges over HTTP, and the
client decodes them through the exact same code path — bit-identical to
a server-side read by construction.

Reads optionally consult a shared decoded-chunk cache (``chunk_cache=``,
see :class:`repro.serve.cache.HotChunkCache`): chunks are keyed by
payload content hash plus every decode parameter, so any byte-identical
chunk decoded under the same bound/codec/halo is served from memory
without touching ``chunks.bin``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.compressors.halo import reconstruction_faces
from repro.compressors.tiles import (
    RAW_CODEC,
    DecodedTile,
    DecodeTask,
    borrowed_halo,
    decode_tile,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span as obs_span
from repro.utils.parallel import ParallelConfig
from repro.utils.schedule import PlanTile, TilePlan, WaveExecutor
from repro.store.format import (
    IndexRecord,
    StoreCorruptionError,
    StoreFormatError,
    parse_halo_flags,
    unpack_index,
)

__all__ = [
    "META_NAME",
    "INDEX_NAME",
    "DATA_NAME",
    "META_FORMAT",
    "META_VERSION",
    "RAW_CODEC",
    "ReadReport",
    "StoreSnapshot",
    "load_store_state",
    "meta_float",
]

META_NAME = "meta.json"
INDEX_NAME = "index.bin"
DATA_NAME = "chunks.bin"
META_FORMAT = "repro-store"
META_VERSION = 1


@dataclass(frozen=True)
class ReadReport:
    """What one snapshot/store read actually did.

    ``chunks_decoded`` counts real payload decodes; ``cache_hits`` counts
    chunks served from a shared decoded-chunk cache instead (a fully hot
    read decodes nothing).
    """

    region: Tuple[Tuple[int, int], ...]
    chunks_total: int
    chunks_intersecting: int
    chunks_decoded: int
    cache_hits: int = 0


def meta_float(value) -> float:
    """Read back a JSON-sanitized float (``null`` round-trips to NaN)."""

    return float("nan") if value is None else float(value)


def _state_inconsistency(meta: Dict, index: List[IndexRecord]) -> Optional[str]:
    """Reason string when ``meta`` and ``index`` disagree, else None."""

    n_meta = len(meta.get("chunks", []))
    if len(index) != n_meta:
        return f"index has {len(index)} records but meta lists {n_meta} chunks"
    if meta.get("shape") is not None:
        from repro.utils.blocking import grid_offsets

        expected = len(grid_offsets(tuple(meta["shape"]), tuple(meta["chunk_shape"])))
        if len(index) != expected:
            return (
                f"index has {len(index)} records but the chunk grid of shape "
                f"{tuple(meta['shape'])} needs {expected}"
            )
    return None


def load_store_state(
    path: str, *, retries: int = 6, retry_wait_s: float = 0.015
) -> Tuple[Dict, List[IndexRecord]]:
    """Atomically read a store's ``meta.json`` + ``index.bin`` into memory.

    Both files are read exactly once per attempt and cross-validated:
    ``meta.json`` records the SHA-1 of the index bytes it was flushed
    with, so a replacement racing this read shows up as a digest (or
    chunk-count) mismatch.  Mismatches are transient while a writer is
    mid-flush and are retried with a short sleep; a store that never
    converges raises :class:`StoreCorruptionError`.

    Stores written before the digest was recorded (no ``index_sha1`` key)
    fall back to the structural consistency checks alone.
    """

    meta_path = os.path.join(path, META_NAME)
    if not os.path.isfile(meta_path):
        raise StoreFormatError(f"{path!r} is not a store (missing {META_NAME})")
    reason = "unreadable state"
    for attempt in range(max(1, retries)):
        if attempt:
            time.sleep(retry_wait_s)
        with open(meta_path, "r", encoding="utf-8") as handle:
            try:
                meta = json.load(handle)
            except json.JSONDecodeError as exc:
                raise StoreFormatError(f"corrupt {META_NAME}: {exc}") from exc
        if meta.get("format") != META_FORMAT:
            raise StoreFormatError(f"not a {META_FORMAT} store: {meta.get('format')!r}")
        if meta.get("format_version") != META_VERSION:
            raise StoreFormatError(
                f"unsupported store version {meta.get('format_version')!r}"
            )
        with open(os.path.join(path, INDEX_NAME), "rb") as handle:
            blob = handle.read()
        recorded = meta.get("index_sha1")
        if recorded is not None and hashlib.sha1(blob).hexdigest() != recorded:
            reason = "index.bin does not match the digest recorded in meta.json"
            continue
        try:
            index = unpack_index(blob)
        except StoreFormatError:
            if recorded is not None:
                # The digest matched, so these are exactly the bytes the
                # writer flushed: the index is corrupt, not torn.
                raise
            reason = "index.bin failed to parse"
            continue
        inconsistency = _state_inconsistency(meta, index)
        if inconsistency is None:
            return meta, index
        reason = inconsistency
    raise StoreCorruptionError(
        f"store at {path!r} failed consistency checks {retries} times ({reason}); "
        f"either a writer is replacing it continuously or the store is corrupt"
    )


class StoreSnapshot:
    """Read-only view of one consistent store state.

    Construct with :meth:`open` (atomic on-disk load), from an
    :class:`~repro.store.array_store.ArrayStore` via its ``snapshot()``
    method, or directly from ``(meta, index)`` plus an in-memory payload
    buffer (the serve layer's client-side decode).
    """

    def __init__(
        self,
        meta: Dict,
        index: List[IndexRecord],
        *,
        path: Optional[str] = None,
        data: Optional[bytes] = None,
    ) -> None:
        if path is None and data is None:
            raise ValueError("snapshot needs a store path or payload bytes")
        self._meta = meta
        self._index = list(index)
        self.path = str(path) if path is not None else None
        # Geometry is immutable for a snapshot: resolve it once, since
        # region reads consult it per chunk.
        chunk = meta["chunk_shape"]
        self._shape = tuple(meta["shape"]) if meta["shape"] is not None else None
        self._chunk_shape = (
            None if chunk is None or np.isscalar(chunk) else tuple(chunk)
        )
        self._strides: Optional[List[int]] = None
        self._data = data

    @classmethod
    def open(cls, path: str, **load_kwargs) -> "StoreSnapshot":
        """Atomically load a consistent snapshot from a store directory."""

        meta, index = load_store_state(path, **load_kwargs)
        return cls(meta, index, path=path)

    # -- properties ------------------------------------------------------
    @property
    def meta(self) -> Dict:
        return self._meta

    @property
    def index(self) -> List[IndexRecord]:
        return list(self._index)

    @property
    def shape(self) -> Optional[Tuple[int, ...]]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self._meta["dtype"])

    @property
    def chunk_shape(self) -> Optional[Tuple[int, ...]]:
        return self._chunk_shape

    @property
    def error_bound(self) -> float:
        return float(self._meta["error_bound"])

    @property
    def halo(self) -> bool:
        """Whether the store compresses odd-parity chunks against halos."""

        return bool(self._meta.get("halo", False))

    @property
    def codec_policy(self) -> str:
        return str(self._meta["codec"])

    @property
    def generation(self) -> int:
        """Write generation this snapshot observed (0 for legacy stores)."""

        return int(self._meta.get("generation", 0))

    @property
    def n_chunks(self) -> int:
        return len(self._index)

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        shape, chunk_shape = self.shape, self.chunk_shape
        return tuple(-(-s // e) for s, e in zip(shape, chunk_shape))

    # -- byte accounting -------------------------------------------------
    @cached_property
    def original_nbytes(self) -> int:
        """Uncompressed size of the stored array."""

        shape = self._shape
        return int(np.prod(shape)) * self.dtype.itemsize if shape is not None else 0

    @cached_property
    def compressed_nbytes(self) -> int:
        """Logical compressed size: sum of the per-chunk payload lengths."""

        return sum(record.length for record in self._index)

    @cached_property
    def stored_nbytes(self) -> int:
        """Bytes actually referenced in the payload source (dedup collapses)."""

        return sum(length for _, length in {(r.offset, r.length) for r in self._index})

    @cached_property
    def live_payload_nbytes(self) -> int:
        """Bytes of the payload source covered by live index ranges
        (interval union — dedup-shared and overlapping ranges count once)."""

        total = 0
        covered_until = 0
        for offset, length in sorted({(r.offset, r.length) for r in self._index}):
            end = offset + length
            if end > covered_until:
                total += end - max(offset, covered_until)
                covered_until = end
        return total

    @property
    def compression_ratio(self) -> float:
        compressed = self.compressed_nbytes
        return self.original_nbytes / compressed if compressed else float("inf")

    @property
    def data_file_nbytes(self) -> int:
        """Size of the payload source: ``chunks.bin`` on disk (live plus
        orphaned bytes) or the in-memory buffer."""

        if self._data is not None:
            return len(self._data)
        data_path = os.path.join(self.path, DATA_NAME)
        return os.path.getsize(data_path) if os.path.exists(data_path) else 0

    @property
    def orphaned_nbytes(self) -> int:
        """Payload bytes no live chunk references (left by unaligned
        appends / rewrites; :meth:`ArrayStore.compact` reclaims them)."""

        return max(0, self.data_file_nbytes - self.live_payload_nbytes)

    def payload_sha1(self, linear: int) -> Optional[str]:
        """Recorded content hash of chunk ``linear``'s payload, if any."""

        entries = self._meta.get("chunks") or []
        if 0 <= linear < len(entries):
            sha1 = entries[linear].get("payload_sha1")
            return str(sha1) if sha1 is not None else None
        return None

    def _open_data(self):
        if self._data is not None:
            return io.BytesIO(self._data)
        return open(os.path.join(self.path, DATA_NAME), "rb")

    @contextmanager
    def payload_reader(self) -> Iterator[Callable[[IndexRecord], bytes]]:
        """Open the payload source once and yield ``fetch(record)``.

        The one way payload bytes leave a snapshot: ``fetch`` returns the
        record's bytes after checking their length and CRC, and raises
        :class:`~repro.store.format.StoreCorruptionError` on a mismatch.
        Region reads, the serve layer's ``mode=chunks`` body and its
        per-chunk GET all read through it.
        """

        with self._open_data() as handle:
            yield partial(self._read_payload, handle)

    # -- geometry --------------------------------------------------------
    def _grid_strides(self) -> List[int]:
        if self._strides is None:
            strides: List[int] = []
            stride = 1
            for count in reversed(self.grid_shape):
                strides.append(stride)
                stride *= count
            self._strides = list(reversed(strides))
        return self._strides

    def linear_index(self, grid_index: Tuple[int, ...]) -> int:
        return sum(i * s for i, s in zip(grid_index, self._grid_strides()))

    def chunk_box(
        self, grid_index: Tuple[int, ...]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Array-space ``(offset, extent)`` of the chunk at ``grid_index``."""

        shape, chunk_shape = self._shape, self._chunk_shape
        offset = tuple([i * e for i, e in zip(grid_index, chunk_shape)])
        extent = tuple([min(e, s - o) for e, s, o in zip(chunk_shape, shape, offset)])
        return offset, extent

    def normalize_region(self, region) -> Tuple[List[Tuple[int, int]], List[int]]:
        """Region → per-axis (start, stop) plus the axes to drop (ints)."""

        shape = self.shape
        if shape is None:
            raise StoreFormatError("store holds no data yet (write an array first)")
        if region is None:
            region = ()
        if not isinstance(region, tuple):
            region = (region,)
        if len(region) > len(shape):
            raise ValueError(
                f"region has {len(region)} axes but the array is {len(shape)}D"
            )
        bounds: List[Tuple[int, int]] = []
        drop_axes: List[int] = []
        for axis, length in enumerate(shape):
            if axis >= len(region):
                bounds.append((0, length))
                continue
            spec = region[axis]
            if isinstance(spec, (int, np.integer)):
                idx = int(spec)
                if idx < 0:
                    idx += length
                if not 0 <= idx < length:
                    raise IndexError(
                        f"index {spec} out of bounds for axis {axis} of length {length}"
                    )
                bounds.append((idx, idx + 1))
                drop_axes.append(axis)
            elif isinstance(spec, slice):
                if spec.step not in (None, 1):
                    raise ValueError("store reads support step-1 slices only")
                start, stop, _ = spec.indices(length)
                if stop <= start:
                    raise ValueError(
                        f"empty region on axis {axis}: {spec!r} over length {length}"
                    )
                bounds.append((start, stop))
            else:
                raise TypeError(
                    f"region entries must be int or slice, got {type(spec).__name__}"
                )
        return bounds, drop_axes

    def intersecting_chunks(
        self, bounds: List[Tuple[int, int]]
    ) -> List[Tuple[int, ...]]:
        """Grid indices of chunks intersecting ``bounds``, in C scan order."""

        chunk_ranges = [
            range(start // edge, -(-stop // edge))
            for (start, stop), edge in zip(bounds, self.chunk_shape)
        ]
        return list(product(*chunk_ranges))

    # -- read ------------------------------------------------------------
    def read(
        self, region=None, *, chunk_cache=None, parallel: Optional[ParallelConfig] = None
    ) -> Tuple[np.ndarray, ReadReport]:
        """Read a subarray, decoding only the chunks the region intersects.

        ``region`` follows NumPy basic indexing restricted to step-1
        slices and integers (integers drop their axis); ``None`` reads the
        full array.  Halo-flagged chunks pull in their anchor neighbours
        (at most one extra standalone decode per axis — reads stay
        partial, never cascading further).

        The read is a :class:`~repro.utils.schedule.TilePlan` over the
        decodes it needs (:meth:`_read_plan`): anchors in wave 0, halo
        chunks in wave 1, each task carrying its anchors' faces and
        returning its values, from which the output is assembled.
        ``parallel`` runs the waves over a worker pool; the output is
        bit-identical to a serial read, because halo planes and entropy
        contexts do not depend on the schedule.

        ``chunk_cache`` optionally supplies a shared decoded-chunk cache
        (:class:`repro.serve.cache.HotChunkCache`); hits skip both the
        payload read and the decode.  A read with a cache stays serial:
        the serve hot path owns its cache accounting.  Returns
        ``(values, report)``.
        """

        bounds, drop_axes = self.normalize_region(region)
        grid_indices = self.intersecting_chunks(bounds)
        plan, slot_of, linears = self._read_plan(grid_indices)
        if chunk_cache is not None:
            parallel = None
        # Everything the decode depends on besides the payload bytes; part
        # of the shared-cache key so two stores serving byte-identical
        # chunks under different bounds never alias.
        decode_config = (float(self.error_bound), str(self.dtype))
        error_bound, halo_store = self.error_bound, self.halo
        # Decoded values by slot (hot-cache hits keep the cached array).
        decoded: Dict[int, np.ndarray] = {}
        hits = 0
        out = np.empty(tuple(stop - start for start, stop in bounds), dtype=self.dtype)

        with WaveExecutor(
            plan,
            parallel,
            wave_span="store.decode_wave",
            tile_span="store.decode_chunk",
            category="store",
        ) as executor, self.payload_reader() as fetch:

            def build(slot: int, tile: PlanTile) -> DecodeTask:
                record = self._index[linears[slot]]
                read = partial(fetch, record)
                return DecodeTask(
                    payload=read() if executor.pooled else read,
                    codec=record.codec,
                    extent=tile.extent,
                    error_bound=error_bound,
                    halo=borrowed_halo(tile, executor.results),
                    # Anchors double as entropy-context references in a
                    # halo store; deriving the context in the same decode
                    # avoids a second pass when a halo chunk needs it.
                    lends=halo_store and not tile.planes,
                )

            def hot(slots, tasks, compute):
                nonlocal hits
                results = [None] * len(tasks)
                missed = []
                for n, (slot, task) in enumerate(zip(slots, tasks)):
                    key = None
                    sha1 = self.payload_sha1(linears[slot])
                    if sha1 is not None:
                        key = (
                            sha1,
                            task.codec,
                            task.extent,
                            None if task.halo is None else task.halo.digest(),
                            decode_config,
                        )
                        results[n] = chunk_cache.get(key, want_context=task.lends)
                        if results[n] is not None:
                            hits += 1
                            continue
                    missed.append((n, key))
                fresh = compute([tasks[n] for n, _ in missed])
                for (n, key), result in zip(missed, fresh):
                    results[n] = result
                    if key is not None:
                        chunk_cache.put(key, *result)
                return results

            def done(slot: int, result: DecodedTile):
                decoded[slot], context = result
                lends = halo_store and not plan.tiles[slot].planes
                return (reconstruction_faces(decoded[slot]) if lends else {}), context

            span = (
                obs_span(
                    "store.read.parallel",
                    "store",
                    chunks=len(plan.tiles),
                    anchors=sum(1 for tile in plan.tiles if not tile.planes),
                    halo=sum(1 for tile in plan.tiles if tile.planes),
                )
                if executor.pooled
                else nullcontext()
            )
            with span:
                executor.run_waves(
                    decode_tile,
                    enumerate(plan.waves()),
                    build,
                    memo=hot if chunk_cache is not None else None,
                    done=done,
                )

        for grid_index in grid_indices:
            slot = slot_of[grid_index]
            # Intersection of the chunk box with the requested region, in
            # chunk-local and output coordinates (a slot shared by
            # deduplicated chunks has their common extent).
            src = []
            dst = []
            for (start, stop), g, edge, extent in zip(
                bounds, grid_index, self.chunk_shape, plan.tiles[slot].extent
            ):
                o = g * edge
                lo = max(start, o)
                hi = min(stop, o + extent)
                src.append(slice(lo - o, hi - o))
                dst.append(slice(lo - start, hi - start))
            out[tuple(dst)] = decoded[slot][tuple(src)]

        report = ReadReport(
            region=tuple(bounds),
            chunks_total=len(self._index),
            chunks_intersecting=len(grid_indices),
            chunks_decoded=len(plan.tiles) - hits,
            cache_hits=hits,
        )
        REGISTRY.counter(
            "repro_store_reads_total",
            help="Store region reads performed by this process.",
        )
        REGISTRY.counter(
            "repro_store_chunks_decoded_total",
            report.chunks_decoded,
            help="Chunk payload decodes performed by store reads.",
        )
        if drop_axes:
            out = out.reshape(
                tuple(
                    s
                    for axis, s in enumerate(out.shape)
                    if axis not in drop_axes
                )
            )
        return out, report

    def _read_plan(
        self, grid_indices: List[Tuple[int, ...]]
    ) -> Tuple[TilePlan, Dict[Tuple[int, ...], int], List[int]]:
        """The decodes a read needs, as a plan over decode slots.

        Slots cover the intersecting chunks plus the anchors their halo
        flags reference — at most one per axis, never further, and never
        another halo chunk.  Standalone chunks with the same payload bytes
        (dedup) share one slot and decode once.  Returns the plan, the
        slot of each grid index and the index-record position of each
        slot.
        """

        slot_of: Dict[Tuple[int, ...], int] = {}
        shared: Dict[tuple, int] = {}
        tiles: List[PlanTile] = []
        linears: List[int] = []

        def anchor(grid_index: Tuple[int, ...], axis: int) -> int:
            if not 0 <= axis < len(grid_index) or grid_index[axis] == 0:
                raise StoreCorruptionError(
                    f"halo chunk at grid {grid_index} references a "
                    f"neighbour beyond the array edge (axis {axis})"
                )
            neighbour = tuple(
                g - 1 if a == axis else g for a, g in enumerate(grid_index)
            )
            if self._index[self.linear_index(neighbour)].flags:
                raise StoreCorruptionError(
                    f"halo chunk at grid {grid_index} references the "
                    f"non-anchor chunk at grid {neighbour}"
                )
            return add(neighbour)

        def add(grid_index: Tuple[int, ...]) -> int:
            if grid_index in slot_of:
                return slot_of[grid_index]
            linear = self.linear_index(grid_index)
            record = self._index[linear]
            is_halo, axes_mask, ref_axis = parse_halo_flags(record.flags)
            offset, extent = self.chunk_box(grid_index)
            if is_halo:
                planes = tuple(
                    anchor(grid_index, axis) if axes_mask & (1 << axis) else None
                    for axis in range(len(grid_index))
                )
                context = None if ref_axis is None else anchor(grid_index, ref_axis)
                tile = PlanTile(offset, extent, planes, ref_axis, context)
            else:
                key = (record.offset, record.length, record.codec, extent)
                if key in shared:
                    slot_of[grid_index] = shared[key]
                    return shared[key]
                shared[key] = len(tiles)
                tile = PlanTile(offset, extent)
            slot_of[grid_index] = len(tiles)
            tiles.append(tile)
            linears.append(linear)
            return slot_of[grid_index]

        for grid_index in grid_indices:
            add(grid_index)
        return TilePlan(tuple(tiles)), slot_of, linears

    def _read_payload(self, handle, record: IndexRecord) -> bytes:
        """Read and CRC-check one chunk's payload bytes."""

        handle.seek(record.offset)
        payload = handle.read(record.length)
        if len(payload) != record.length:
            raise StoreCorruptionError(
                f"truncated chunk payload: wanted {record.length} bytes at "
                f"offset {record.offset}, got {len(payload)}"
            )
        if zlib.crc32(payload) != record.checksum:
            raise StoreCorruptionError(
                f"chunk checksum mismatch at offset {record.offset} "
                f"(codec {record.codec})"
            )
        return payload

    # -- inspection ------------------------------------------------------
    def info(self) -> Dict:
        """JSON-friendly summary of this snapshot (the serve ``info``)."""

        shape = self.shape
        codec_histogram: Dict[str, int] = {}
        for record in self._index:
            codec_histogram[record.codec] = codec_histogram.get(record.codec, 0) + 1
        return {
            "shape": list(shape) if shape is not None else None,
            "dtype": str(self.dtype),
            "chunk_shape": list(self.chunk_shape) if self.chunk_shape else None,
            "n_chunks": self.n_chunks,
            "codec_policy": self.codec_policy,
            "error_bound": self.error_bound,
            "halo": self.halo,
            "halo_chunks": sum(1 for record in self._index if record.flags),
            "generation": self.generation,
            "original_nbytes": self.original_nbytes,
            "compressed_nbytes": self.compressed_nbytes,
            "stored_nbytes": self.stored_nbytes,
            "data_file_nbytes": self.data_file_nbytes,
            "orphaned_nbytes": self.orphaned_nbytes,
            "compression_ratio": self.compression_ratio,
            "codec_histogram": codec_histogram,
        }
