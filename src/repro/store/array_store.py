"""The chunked compressed array store.

An :class:`ArrayStore` persists one N-d float array (2D plane or 3D
volume) as a directory of three files — ``meta.json``, ``index.bin`` and
``chunks.bin`` (see :mod:`repro.store.format` for the binary layout).
The array is sharded into fixed-size chunks on a grid anchored at the
origin (``128^2`` for planes, ``64^3`` for volumes by default; edge
chunks are smaller), and every chunk is compressed independently by the
smallest payload among the codecs its policy lists (see
:mod:`repro.store.policy`), through the tile workers the volume pipeline
runs too (:mod:`repro.compressors.tiles`).

Design points:

* **Random-access partial reads** — :meth:`ArrayStore.read` decodes only
  the chunks intersecting the requested region and assembles the
  subarray; :attr:`ArrayStore.last_read` reports exactly how many chunk
  payloads were decoded (the partial-read benchmark asserts on it).
* **Content dedup** — byte-identical payloads are stored once in
  ``chunks.bin`` with index records sharing the byte range.  Payload
  SHA-1s are persisted in ``meta.json`` so appends dedup against existing
  chunks too.  Every written chunk is compressed; nothing is memoized
  across writes.
* **Append** — :meth:`ArrayStore.append` grows the array along axis 0.
  When the current extent is not chunk-aligned the trailing partial
  chunks are re-compressed from their decoded content plus the new data;
  their old payloads stay as unreferenced bytes in ``chunks.bin``
  (deliberate, append stays O(new data)) until :meth:`ArrayStore.compact`
  rewrites the data file from the live index ranges.
* **Concurrent readers** — all decoding lives in the immutable
  :class:`~repro.store.snapshot.StoreSnapshot`; :meth:`ArrayStore.read`
  snapshots its in-memory state, and cross-process readers use
  :meth:`StoreSnapshot.open`, which pairs ``meta.json`` with the exact
  ``index.bin`` bytes it was flushed with (``index_sha1``) so an
  in-flight append is never observed half-written.

Integrity: every payload read is CRC-checked against the index record;
truncated files, bad magic and checksum mismatches raise
:class:`~repro.store.format.StoreCorruptionError` /
:class:`~repro.store.format.StoreFormatError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import REGISTRY, json_finite
from repro.obs.trace import span as obs_span
from repro.compressors.tiles import EncodedTile, EncodeTask, borrowed_halo, encode_tile
from repro.store.format import (
    IndexRecord,
    StoreCorruptionError,
    StoreFormatError,
    halo_flags,
    pack_index,
)
from repro.store.policy import parse_policy
from repro.store.snapshot import (
    DATA_NAME,
    INDEX_NAME,
    META_FORMAT,
    META_NAME,
    META_VERSION,
    ReadReport,
    StoreSnapshot,
    load_store_state,
    meta_float as _meta_float,
)
from repro.utils.blocking import grid_offsets
from repro.utils.parallel import ParallelConfig
from repro.utils.schedule import PlanTile, TilePlan, WaveExecutor
from repro.utils.validation import ensure_positive

__all__ = [
    "ArrayStore",
    "ChunkRecord",
    "ReadReport",
    "StoreSnapshot",
    "DEFAULT_CHUNK_EDGES",
]

#: Default chunk edge per dimensionality (the ISSUE's 128^2 / 64^3).
DEFAULT_CHUNK_EDGES = {2: 128, 3: 64}

@dataclass(frozen=True)
class ChunkRecord:
    """Merged per-chunk view: index entry + recorded statistics."""

    grid_index: Tuple[int, ...]
    offset: Tuple[int, ...]
    shape: Tuple[int, ...]
    codec: str
    nbytes: int
    compression_ratio: float
    stats: Dict[str, float]


def _index_flags(tile: PlanTile) -> int:
    """The index flags of a chunk its codec coded against its halo."""

    axes_mask = sum(1 << axis for axis, dep in enumerate(tile.planes) if dep is not None)
    return halo_flags(axes_mask, tile.ref_axis)


def _normalize_chunk_shape(
    chunk_shape: Union[int, Sequence[int], None], ndim: int
) -> Tuple[int, ...]:
    if chunk_shape is None:
        if ndim not in DEFAULT_CHUNK_EDGES:
            raise ValueError(f"no default chunk shape for {ndim}D arrays")
        return (DEFAULT_CHUNK_EDGES[ndim],) * ndim
    if np.isscalar(chunk_shape):
        shape = (int(chunk_shape),) * ndim
    else:
        shape = tuple(int(c) for c in chunk_shape)
    if len(shape) != ndim:
        raise ValueError(
            f"chunk_shape {shape} does not match array dimensionality {ndim}"
        )
    for edge in shape:
        ensure_positive(edge, "chunk edge")
    return shape


def _from_snapshot(name: str) -> property:
    """An :class:`ArrayStore` property answered by its current snapshot."""

    return property(
        lambda self: getattr(self._snapshot, name),
        doc=getattr(StoreSnapshot, name).__doc__,
    )


class ArrayStore:
    """A persistent chunked compressed N-d float array.

    Create with :meth:`create` (configuration only; :meth:`write` or
    :meth:`append` supplies data) and reattach with :meth:`open`.
    Geometry and byte accounting come from the instance's current
    :class:`~repro.store.snapshot.StoreSnapshot`, replaced after every
    flush, so the store and its snapshot can never disagree.
    """

    def __init__(self, path: str, meta: Dict, index: List[IndexRecord]) -> None:
        self.path = str(path)
        self._meta = meta
        self._index = index
        #: Report of the most recent :meth:`read` call (None before any).
        self.last_read: Optional[ReadReport] = None
        self._refresh_snapshot()

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        *,
        chunk_shape: Union[int, Sequence[int], None] = None,
        error_bound: float = 1e-3,
        codec: str = "sz",
        chunk_stats: bool = True,
        overwrite: bool = False,
        halo: bool = False,
    ) -> "ArrayStore":
        """Create an empty store directory holding only its configuration.

        ``codec`` is a policy spec (``"sz"``, ``"fixed:zfp"``, ``"best"``,
        ``"best:sz+zfp"``; see :func:`~repro.store.policy.parse_policy`,
        which raises :class:`ValueError` on a bad one).
        ``chunk_shape`` may be an int (cubic chunks), a full tuple, or
        None for the per-ndim default (128^2 / 64^3) resolved at first
        write.

        ``halo=True`` turns on halo-aware chunking: chunks whose grid
        indices sum to an odd number borrow their even-parity face
        neighbours' reconstructed planes and entropy context during
        compression (anchor chunks stay standalone, so a partial read of
        a halo chunk decodes at most one extra neighbour per axis — the
        per-chunk index flags record exactly which).
        """

        ensure_positive(error_bound, "error_bound")
        spec, _ = parse_policy(codec)
        if os.path.exists(path):
            entries = os.listdir(path) if os.path.isdir(path) else None
            if entries is None:
                raise StoreFormatError(f"store path {path!r} exists and is not a directory")
            if entries and not overwrite:
                raise StoreFormatError(
                    f"store path {path!r} is not empty (pass overwrite=True to replace)"
                )
        os.makedirs(path, exist_ok=True)
        if chunk_shape is not None and not np.isscalar(chunk_shape):
            chunk_shape = tuple(int(c) for c in chunk_shape)
        elif chunk_shape is not None:
            chunk_shape = int(chunk_shape)
        meta = {
            "format": META_FORMAT,
            "format_version": META_VERSION,
            "shape": None,
            "dtype": "float64",
            "chunk_shape": chunk_shape,
            "error_bound": float(error_bound),
            "codec": spec,
            "chunk_stats": bool(chunk_stats),
            "halo": bool(halo),
            "generation": 0,
            "chunks": [],
        }
        store = cls(path, meta, [])
        store._flush(data=b"", truncate=True)
        return store

    @classmethod
    def open(cls, path: str) -> "ArrayStore":
        """Attach to an existing store directory, validating its metadata.

        The load is atomic against concurrent appends: ``meta.json`` and
        ``index.bin`` are read into memory once and cross-validated via
        the recorded index digest (see
        :func:`repro.store.snapshot.load_store_state`), so this never
        pairs a stale index with fresh metadata.
        """

        meta, index = load_store_state(path)
        return cls(path, meta, index)

    def _refresh_snapshot(self) -> None:
        # The snapshot owns copies of the mutable parts: writes replace
        # and extend ``_meta["chunks"]`` and ``_index`` in place.
        meta = dict(self._meta, chunks=list(self._meta["chunks"]))
        self._snapshot = StoreSnapshot(meta, self._index, path=self.path)

    # -- geometry and byte accounting -----------------------------------
    shape = _from_snapshot("shape")
    dtype = _from_snapshot("dtype")
    chunk_shape = _from_snapshot("chunk_shape")
    error_bound = _from_snapshot("error_bound")
    halo = _from_snapshot("halo")
    codec_policy = _from_snapshot("codec_policy")
    generation = _from_snapshot("generation")
    n_chunks = _from_snapshot("n_chunks")
    original_nbytes = _from_snapshot("original_nbytes")
    compressed_nbytes = _from_snapshot("compressed_nbytes")
    stored_nbytes = _from_snapshot("stored_nbytes")
    live_payload_nbytes = _from_snapshot("live_payload_nbytes")
    compression_ratio = _from_snapshot("compression_ratio")
    data_file_nbytes = _from_snapshot("data_file_nbytes")
    orphaned_nbytes = _from_snapshot("orphaned_nbytes")

    # -- write / append -------------------------------------------------
    def _compress_block(
        self,
        offsets: List[Tuple[int, ...]],
        chunks: List[np.ndarray],
        exact_rows: List[int],
        parallel: Optional[ParallelConfig],
        chunk_shape: Tuple[int, ...],
    ) -> Tuple[List[EncodedTile], List[int]]:
        """Compress one write/append block through its tile plan.

        Halo-off stores compress every chunk standalone, in one wave.
        Halo stores follow :meth:`~repro.utils.schedule.TilePlan.parity`:
        even-parity **anchor** chunks compress standalone, returning
        their reconstruction faces and entropy context, then the
        odd-parity **halo** chunks compress against the anchors of *this*
        block.  Restricting references to the block keeps appends safe —
        a later append rewrites only the trailing axis-0 slab, and no
        chunk outside that slab ever references into it (halo planes look
        toward lower indices only, and a slab's chunks are rewritten
        together).  Returns each chunk's result and its index halo flags.
        """

        # A store written under a spec this code no longer accepts still
        # reads; only writing needs the policy, and fails here.
        _, candidates = parse_policy(self.codec_policy)
        with_stats = bool(self._meta["chunk_stats"])
        extents = [chunk.shape for chunk in chunks]
        if self.halo:
            plan = TilePlan.parity(offsets, extents, chunk_shape)
        else:
            plan = TilePlan.independent(offsets, extents)
        results: List[Optional[EncodedTile]] = [None] * len(chunks)

        def build(index: int, tile: PlanTile) -> EncodeTask:
            return EncodeTask(
                chunks[index],
                self.error_bound,
                candidates,
                with_stats,
                exact_rows[index],
                borrowed_halo(tile, executor.results),
                # Parity anchors borrow nothing and lend their faces.
                self.halo and not tile.planes,
            )

        def done(index: int, result: EncodedTile):
            results[index] = result
            return result.faces, result.context

        with WaveExecutor(
            plan,
            parallel,
            wave_span="store.encode_wave",
            tile_span="store.encode_chunk",
            category="store",
        ) as executor:
            executor.run_waves(
                encode_tile,
                enumerate(plan.waves()),
                build,
                done=done,
            )
        flags = [
            _index_flags(tile) if result.compressed.extras.get("halo_coded") else 0
            for tile, result in zip(plan.tiles, results)
        ]
        return results, flags

    def _check_array(self, array: np.ndarray) -> np.ndarray:
        array = np.asarray(array, dtype=np.float64)
        if array.ndim not in (2, 3):
            raise ValueError(f"store arrays must be 2D or 3D, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("store arrays must be non-empty")
        if not np.all(np.isfinite(array)):
            raise ValueError("store arrays must be finite")
        return array

    def write(
        self,
        array: np.ndarray,
        *,
        parallel: Optional[ParallelConfig] = None,
    ) -> "ArrayStore":
        """(Re)write the full array, replacing any existing content."""

        array = self._check_array(array)
        with obs_span("store.write", "store", nbytes=int(array.nbytes)):
            chunk_shape = _normalize_chunk_shape(
                self._meta["chunk_shape"], array.ndim
            )
            self._write_block(
                array, 0, 0, parallel, chunk_shape, truncate=True
            )
        REGISTRY.counter(
            "repro_store_writes_total",
            help="Full-array store writes performed by this process.",
        )
        return self

    def append(
        self,
        array: np.ndarray,
        *,
        parallel: Optional[ParallelConfig] = None,
    ) -> "ArrayStore":
        """Grow the stored array along axis 0 by ``array``.

        On an empty store this is :meth:`write`.  When the current extent
        is not a multiple of the chunk edge, the trailing partial chunks
        are decoded, merged with the new rows and re-compressed; their old
        payloads become unreferenced bytes in ``chunks.bin``.

        The store's error bound stays relative to the data as *first*
        written: rewritten chunks must reproduce the decoded rows
        bit-for-bit (codec blocks spanning the old/new seam usually
        cannot), and fall back to the exact ``raw`` codec otherwise — so
        repeated appends never let the error accumulate past the bound.
        """

        if self.shape is None:
            return self.write(array, parallel=parallel)
        array = self._check_array(array)
        with obs_span("store.append", "store", nbytes=int(array.nbytes)):
            self._append_checked(array, parallel)
        REGISTRY.counter(
            "repro_store_appends_total",
            help="Store appends (axis-0 growth) performed by this process.",
        )
        return self

    def _append_checked(
        self,
        array: np.ndarray,
        parallel: Optional[ParallelConfig],
    ) -> None:
        shape = self.shape
        chunk_shape = self.chunk_shape
        if array.ndim != len(shape) or tuple(array.shape[1:]) != shape[1:]:
            raise ValueError(
                f"append expects shape (*, {', '.join(str(s) for s in shape[1:])}), "
                f"got {array.shape}"
            )
        edge0 = chunk_shape[0]
        remainder = shape[0] % edge0
        base_row = shape[0] - remainder
        if remainder:
            tail = self.read((slice(base_row, shape[0]),))
            block = np.concatenate([tail, array], axis=0)
        else:
            block = array
        self._write_block(
            block, base_row, remainder, parallel, chunk_shape, truncate=False
        )

    def _write_block(
        self,
        block: np.ndarray,
        base_row: int,
        exact: int,
        parallel: Optional[ParallelConfig],
        chunk_shape: Tuple[int, ...],
        *,
        truncate: bool,
    ) -> None:
        """Compress and persist ``block`` as the rows from ``base_row`` on.

        ``truncate`` rewrites the payload file (a full write); otherwise
        the block's payloads are appended and its chunks follow the index
        records of the rows before ``base_row`` (a rewritten trailing
        slab's old records are dropped).  The first ``exact`` rows are
        previously-stored (already once-lossy) data that must reproduce
        exactly.  Nothing changes in memory until compression succeeded.
        """

        local_offsets = grid_offsets(block.shape, chunk_shape)
        offsets = [(local[0] + base_row,) + tuple(local[1:]) for local in local_offsets]
        chunks = [
            np.ascontiguousarray(
                block[tuple(slice(o, o + e) for o, e in zip(local, chunk_shape))]
            )
            for local in local_offsets
        ]
        exact_rows = [exact if local[0] == 0 else 0 for local in local_offsets]
        results, flags = self._compress_block(
            offsets, chunks, exact_rows, parallel, chunk_shape
        )

        # C scan order puts the records of the rows before the block (and
        # only them) first.
        keep = (
            len(grid_offsets((base_row,) + block.shape[1:], chunk_shape))
            if base_row
            else 0
        )
        self._index = self._index[:keep]
        self._meta["chunks"] = self._meta["chunks"][:keep]
        base_offset = 0 if truncate else self.data_file_nbytes
        existing_digests = {
            entry["payload_sha1"]: (record.offset, record.length)
            for entry, record in zip(self._meta["chunks"], self._index)
            if "payload_sha1" in entry
        }
        index, chunk_meta, data = self._layout_payloads(
            offsets,
            chunks,
            results,
            flags,
            base_offset=base_offset,
            existing_digests=existing_digests,
        )
        self._index.extend(index)
        self._meta["chunks"].extend(chunk_meta)
        self._meta["shape"] = [base_row + int(block.shape[0])] + [
            int(s) for s in block.shape[1:]
        ]
        self._meta["chunk_shape"] = [int(c) for c in chunk_shape]
        self._flush(data=data, truncate=truncate)

    def _layout_payloads(
        self,
        offsets: List[Tuple[int, ...]],
        chunks: List[np.ndarray],
        results: List[EncodedTile],
        flags: List[int],
        *,
        base_offset: int,
        existing_digests: Dict[str, Tuple[int, int]],
    ):
        """Lay compressed payloads into a byte stream with content dedup."""

        digests = dict(existing_digests)
        data = bytearray()
        index: List[IndexRecord] = []
        chunk_meta: List[Dict] = []
        for offset, chunk, result, chunk_flags in zip(offsets, chunks, results, flags):
            payload, codec = result.compressed.data, result.compressed.compressor
            digest = hashlib.sha1(payload).hexdigest()
            if digest in digests:
                payload_offset, payload_length = digests[digest]
            else:
                payload_offset = base_offset + len(data)
                payload_length = len(payload)
                data.extend(payload)
                digests[digest] = (payload_offset, payload_length)
            index.append(
                IndexRecord(
                    offset=payload_offset,
                    length=payload_length,
                    codec=codec,
                    checksum=zlib.crc32(payload),
                    flags=chunk_flags,
                )
            )
            entry = {
                "offset": [int(o) for o in offset],
                "shape": [int(s) for s in chunk.shape],
                "codec": codec,
                "nbytes": payload_length,
                "cr": float(result.compressed.compression_ratio),
                "payload_sha1": digest,
                "stats": result.stats,
            }
            if chunk_flags:
                entry["halo_flags"] = int(chunk_flags)
            chunk_meta.append(entry)
        return index, chunk_meta, bytes(data)

    def _flush(self, *, data: bytes, truncate: bool) -> None:
        """Persist data, then index, then meta — each step atomic.

        The ordering is what makes :func:`~repro.store.snapshot.load_store_state`
        torn-read-proof during appends: payload bytes land first (appended
        ranges are invisible until indexed), then ``index.bin`` is
        replaced, and only then ``meta.json`` — which records the SHA-1 of
        the exact index bytes just written plus a bumped generation
        counter.  A reader that loads meta first can therefore always
        detect a mismatched index and retry.  (``truncate=True`` rewrites
        payload bytes in place and is only safe with exclusive access —
        :meth:`write` and :meth:`compact`.)
        """

        data_path = os.path.join(self.path, DATA_NAME)
        with open(data_path, "wb" if truncate else "ab") as handle:
            handle.write(data)
        index_payload = pack_index(self._index)
        self._meta["generation"] = int(self._meta.get("generation", 0)) + 1
        self._meta["index_sha1"] = hashlib.sha1(index_payload).hexdigest()
        for name, payload in (
            (INDEX_NAME, index_payload),
            (
                META_NAME,
                json.dumps(
                    json_finite(self._meta), indent=1, allow_nan=False
                ).encode("utf-8"),
            ),
        ):
            target = os.path.join(self.path, name)
            tmp = target + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, target)
        self._refresh_snapshot()

    def compact(self) -> Dict[str, int]:
        """Rewrite ``chunks.bin`` to hold exactly the live payload ranges.

        Unaligned appends orphan the payloads of rewritten trailing
        chunks (:attr:`orphaned_nbytes` measures the debt); compaction
        copies every referenced byte range — CRC-verified, deduped, in
        first-reference order — into a fresh data file and rebuilds the
        index records at their new offsets.  Chunk payload bytes, codecs,
        checksums and halo flags are untouched, so reads decode
        bit-identically before and after.

        Requires exclusive access, like :meth:`write`: the data file is
        replaced in place, so a concurrent reader holding the old index
        would fail its CRC checks (loudly, never silently wrong).
        Returns ``{"reclaimed_nbytes", "data_file_nbytes", "n_ranges"}``.
        """

        if not self._index:
            return {"reclaimed_nbytes": 0, "data_file_nbytes": 0, "n_ranges": 0}
        with obs_span("store.compact", "store"):
            before = self.data_file_nbytes
            data_path = os.path.join(self.path, DATA_NAME)
            new_offsets: Dict[Tuple[int, int], int] = {}
            data = bytearray()
            with open(data_path, "rb") as handle:
                for record in self._index:
                    key = (record.offset, record.length)
                    if key in new_offsets:
                        continue
                    handle.seek(record.offset)
                    payload = handle.read(record.length)
                    if len(payload) != record.length or (
                        zlib.crc32(payload) != record.checksum
                    ):
                        raise StoreCorruptionError(
                            f"refusing to compact: live chunk at offset "
                            f"{record.offset} (+{record.length}) is corrupt"
                        )
                    new_offsets[key] = len(data)
                    data.extend(payload)
            self._index = [
                IndexRecord(
                    offset=new_offsets[(record.offset, record.length)],
                    length=record.length,
                    codec=record.codec,
                    checksum=record.checksum,
                    flags=record.flags,
                )
                for record in self._index
            ]
            self._flush(data=bytes(data), truncate=True)
        REGISTRY.counter(
            "repro_store_compactions_total",
            help="Store compactions performed by this process.",
        )
        REGISTRY.counter(
            "repro_store_reclaimed_nbytes_total",
            before - len(data),
            help="Bytes reclaimed from the data file by compaction.",
        )
        return {
            "reclaimed_nbytes": before - len(data),
            "data_file_nbytes": len(data),
            "n_ranges": len(new_offsets),
        }

    # -- read ------------------------------------------------------------
    def read(
        self,
        region=None,
        *,
        chunk_cache=None,
        parallel: Optional[ParallelConfig] = None,
    ) -> np.ndarray:
        """Read a subarray, decoding only the chunks the region intersects.

        ``region`` follows NumPy basic indexing restricted to step-1
        slices and integers (integers drop their axis); ``None`` reads
        the full array.  :attr:`last_read` records how many chunks were
        visited and how many payload decodes were actually performed
        (shared payloads decode once).

        Halo-flagged chunks pull in their anchor neighbours: the flags
        name the axes whose neighbour plane the payload was predicted
        from and the entropy-context reference, so the read decodes at
        most one extra (standalone) neighbour per axis — reads stay
        partial, never cascading further.

        ``chunk_cache`` optionally supplies a shared decoded-chunk cache
        (see :meth:`StoreSnapshot.read`); ``parallel`` (a process-pool
        config) opts into the two-wave parallel decode — anchors, then
        halo chunks, each task carrying its anchors' faces.  The actual
        decoding lives in :class:`~repro.store.snapshot.StoreSnapshot`.
        """

        with obs_span("store.read", "store") as read_span:
            values, report = self._snapshot.read(
                region, chunk_cache=chunk_cache, parallel=parallel
            )
            read_span.add(
                chunks_intersecting=report.chunks_intersecting,
                chunks_decoded=report.chunks_decoded,
            )
        self.last_read = report
        return values

    # -- inspection ------------------------------------------------------
    def chunk_records(self) -> List[ChunkRecord]:
        """Per-chunk view merging the binary index with the recorded stats."""

        records: List[ChunkRecord] = []
        chunk_shape = self.chunk_shape
        for entry, record in zip(self._meta["chunks"], self._index):
            offset = tuple(entry["offset"])
            grid_index = tuple(
                o // e for o, e in zip(offset, chunk_shape)
            )
            records.append(
                ChunkRecord(
                    grid_index=grid_index,
                    offset=offset,
                    shape=tuple(entry["shape"]),
                    codec=entry["codec"],
                    nbytes=int(entry["nbytes"]),
                    compression_ratio=_meta_float(entry["cr"]),
                    stats={
                        key: _meta_float(value)
                        for key, value in entry.get("stats", {}).items()
                    },
                )
            )
        return records

    def info(self) -> Dict:
        """The snapshot's :meth:`~repro.store.snapshot.StoreSnapshot.info`
        plus the path and the per-chunk records."""

        info = self._snapshot.info()
        info.update(path=self.path, chunks=self.chunk_records())
        return info
