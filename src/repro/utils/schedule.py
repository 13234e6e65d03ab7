"""One tile plan and one wave executor for every tiled path.

Halo tiling (:mod:`repro.compressors.halo`) has a single rule: a tile is
coded after the low-face neighbours it borrows reconstructed planes and
an entropy context from.  One-shot and streamed volume compress/decode,
store writes and store reads all apply that rule to a grid of tiles, so
they share two pieces:

* :class:`TilePlan` — the tiles (offset, extent) and, per tile, the tile
  supplying each low-face plane and the entropy-context reference.  Two
  rules build plans: :meth:`TilePlan.wavefront` (volumes: every low
  neighbour, the context along the highest such axis) and
  :meth:`TilePlan.parity` (stores: odd-parity chunks borrow from their
  even *anchor* neighbours inside the written block).
  :meth:`TilePlan.waves` groups a plan into waves — tiles of one wave
  are independent, every dependency lies in an earlier wave — either by
  dependency depth (the anti-diagonals of a volume grid, at most two
  waves for a parity plan) or slab-major (axis-0 slab first, for
  streams).  Both are topological orders of the same graph, and halo
  planes and contexts are schedule-independent, so every grouping
  produces the same bytes.
* :class:`WaveExecutor` — runs waves over one
  :class:`~repro.utils.parallel.WorkerPool`, opens one wave span per
  wave and traces every task once.  Tasks carry their input arrays and
  workers return their output arrays by value, so serial runs and
  process pools share one code path; a serial executor maps inline and
  creates no executor at all.

Every path runs the same two workers over them
(:func:`~repro.compressors.tiles.encode_tile` and
:func:`~repro.compressors.tiles.decode_tile`), and every path's
``done`` keeps a lending tile's ``(faces, context)`` in
:attr:`WaveExecutor.results` for
:func:`~repro.compressors.tiles.borrowed_halo`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import (
    Tracer,
    active_tracer,
    request_tracer,
    span as obs_span,
    use_request_tracer,
)
from repro.utils.blocking import grid_offsets
from repro.utils.parallel import ParallelConfig, WorkerPool

__all__ = [
    "PlanTile",
    "TilePlan",
    "WaveExecutor",
]

Offset = Tuple[int, ...]


def _step_down(offset: Offset, axis: int, edge: int) -> Offset:
    return tuple(o - edge if a == axis else o for a, o in enumerate(offset))


@dataclass
class PlanTile:
    """One tile of a plan and the tiles it borrows from.

    ``planes[a]`` is the index of the tile whose high face along axis
    ``a`` is this tile's low-face halo plane (``None``: no plane on that
    axis; an empty tuple: the tile borrows no planes at all);
    ``context`` is the index of the entropy-context reference tile, the
    low neighbour along ``ref_axis``.
    """

    offset: Offset
    extent: Offset
    planes: Tuple[Optional[int], ...] = ()
    ref_axis: Optional[int] = None
    context: Optional[int] = None

    @cached_property
    def deps(self) -> Tuple[int, ...]:
        linked = set(self.planes) | {self.context}
        return tuple(sorted(d for d in linked if d is not None))


@dataclass(frozen=True)
class TilePlan:
    """Tiles in a topological order: every dependency has a lower index."""

    tiles: Tuple[PlanTile, ...]

    def __post_init__(self) -> None:
        for index, tile in enumerate(self.tiles):
            if any(dep >= index for dep in tile.deps):
                raise ValueError(
                    f"tile {index} at {tile.offset} depends on a later tile"
                )

    @classmethod
    def independent(
        cls, offsets: Sequence[Offset], extents: Sequence[Offset]
    ) -> "TilePlan":
        """Tiles that borrow nothing (halo off): one wave."""

        return cls(
            tuple(PlanTile(tuple(o), tuple(e)) for o, e in zip(offsets, extents))
        )

    @classmethod
    def wavefront(
        cls, shape: Sequence[int], tile_shape: Sequence[int], *, halo: bool = True
    ) -> "TilePlan":
        """The volume rule over the grid tiling ``shape``.

        With ``halo`` every tile borrows a plane from each low neighbour
        and the entropy context of the neighbour along the highest such
        axis (the most recently coded neighbour in scan order); its
        dependency depth is the sum of its grid indices, so
        :meth:`waves` yields the anti-diagonals.
        """

        offsets = grid_offsets(tuple(shape), tuple(tile_shape))
        extents = [
            tuple(min(t, s - o) for t, s, o in zip(tile_shape, shape, offset))
            for offset in offsets
        ]
        return cls._borrowing(offsets, extents, tile_shape, lambda grid: halo)

    @classmethod
    def parity(
        cls,
        offsets: Sequence[Offset],
        extents: Sequence[Offset],
        chunk_shape: Sequence[int],
    ) -> "TilePlan":
        """The store rule over one written block of chunks.

        Chunks whose grid indices sum to an even number are **anchors**
        and borrow nothing.  Every face neighbour of an odd chunk is even,
        so odd chunks borrow planes from the anchor neighbours *inside the
        block* (``offsets``) and the entropy context of the highest such
        axis: references never chain and never leave the block, which is
        what keeps appends from invalidating earlier chunks.
        """

        return cls._borrowing(
            offsets, extents, chunk_shape, lambda grid: sum(grid) % 2 == 1
        )

    @classmethod
    def _borrowing(
        cls,
        offsets: Sequence[Offset],
        extents: Sequence[Offset],
        edges: Sequence[int],
        borrows: Callable[[Offset], bool],
    ) -> "TilePlan":
        """Tiles whose grid index ``borrows`` take a plane from each low
        neighbour among ``offsets`` and the context of the highest one.

        The choice of context neighbour is a rule, never serialised:
        encoder and decoder derive the same plan.
        """

        offsets = [tuple(o) for o in offsets]
        index = {offset: i for i, offset in enumerate(offsets)}
        tiles = []
        for offset, extent in zip(offsets, extents):
            if not borrows(tuple(o // e for o, e in zip(offset, edges))):
                tiles.append(PlanTile(offset, tuple(extent)))
                continue
            planes = tuple(
                index.get(_step_down(offset, axis, edges[axis]))
                if offset[axis] > 0
                else None
                for axis in range(len(offset))
            )
            present = [axis for axis, dep in enumerate(planes) if dep is not None]
            ref_axis = present[-1] if present else None
            context = planes[ref_axis] if ref_axis is not None else None
            tiles.append(PlanTile(offset, tuple(extent), planes, ref_axis, context))
        return cls(tuple(tiles))

    def waves(self, *, slab_major: bool = False) -> List[Tuple[int, ...]]:
        """Tile indices grouped into waves, scan order within each wave.

        By default a tile's wave is its dependency depth.  ``slab_major``
        orders by axis-0 offset first and by the depth among same-slab
        dependencies second, so a stream finishes one slab before reading
        the next.  The list position is the plan-global wave id.
        """

        if not slab_major and not any(tile.deps for tile in self.tiles):
            return [tuple(range(len(self.tiles)))]
        depth: List[int] = []
        keys: List[Tuple[int, ...]] = []
        for tile in self.tiles:
            deps = tile.deps
            if slab_major:
                deps = [d for d in deps if self.tiles[d].offset[0] == tile.offset[0]]
            depth.append(1 + max((depth[d] for d in deps), default=-1))
            keys.append((tile.offset[0], depth[-1]) if slab_major else (depth[-1],))
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(key, []).append(index)
        return [tuple(groups[key]) for key in sorted(groups)]

    def dependent_counts(self) -> List[int]:
        """How many tiles borrow from each tile."""

        counts = [0] * len(self.tiles)
        for tile in self.tiles:
            for dep in tile.deps:
                counts[dep] += 1
        return counts


def _traced_task(job):
    """Run one task under its own span capture (top-level, picklable).

    The capture is bound context-locally, so the same wrapper serves pool
    processes and inline serial runs (including serve requests with
    their own request-scoped tracer).  Returns the
    documented ``(result, span_tuples)`` payload.
    """

    worker, name, category, args, task = job
    capture = Tracer("worker")
    with use_request_tracer(capture), capture.span(name, category, **args):
        result = worker(task)
    return result, capture.export_tuples()


class WaveExecutor:
    """Runs a :class:`TilePlan`'s waves over one worker pool.

    ``with WaveExecutor(plan, parallel) as executor:`` holds the pool for
    the block, and :meth:`run_waves` is the one scheduling loop: build
    each wave's tasks, run them, keep each result (or what ``done``
    makes of it) only until the last tile that borrows from it has been
    built.
    """

    def __init__(
        self,
        plan: TilePlan,
        parallel: Optional[ParallelConfig] = None,
        *,
        wave_span: str = "volume.wave",
        tile_span: str = "volume.tile",
        category: str = "volume",
    ) -> None:
        self.plan = plan
        self.pooled = parallel is not None and parallel.workers > 1
        self.wave_span = wave_span
        self.tile_span = tile_span
        self.category = category
        #: Results still needed by tiles not yet built, by plan index.
        self.results: Dict[int, object] = {}
        self._remaining = plan.dependent_counts()
        self._pool = WorkerPool(parallel)

    def __enter__(self) -> "WaveExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.__exit__(*exc_info)

    # -- scheduling ------------------------------------------------------
    def run_waves(
        self,
        worker: Callable,
        waves: Iterable[Tuple[int, Sequence[int]]],
        build: Callable[[int, PlanTile], object],
        *,
        memo: Optional[Callable] = None,
        done: Optional[Callable[[int, object], object]] = None,
    ) -> None:
        """Run ``(wave_id, tile indices)`` waves in order.

        ``build(index, tile)`` makes a tile's task and may read its
        dependencies' results from :attr:`results`.  ``memo(indices,
        tasks, compute)`` optionally stands between a wave and the pool
        (a cache resolves some tasks, ``compute`` runs the rest);
        ``done(index, result)`` sees every result, in wave order before
        the next wave is built, and returns what :attr:`results` keeps
        for the tile's borrowers (without ``done``, the result itself).
        """

        for wave_id, indices in waves:
            tasks = [build(index, self.plan.tiles[index]) for index in indices]
            self._forget_consumed(indices)

            def compute(pending, wave_id=wave_id, tasks=tasks, indices=indices):
                return self._map(worker, pending, wave_id, tasks, indices)

            with obs_span(self.wave_span, self.category, wave=wave_id, tiles=len(tasks)):
                results = (
                    memo(indices, tasks, compute) if memo is not None else compute(tasks)
                )
            for index, result in zip(indices, results):
                if done is not None:
                    result = done(index, result)
                if self._remaining[index]:
                    self.results[index] = result

    def _forget_consumed(self, indices: Sequence[int]) -> None:
        for index in indices:
            for dep in self.plan.tiles[index].deps:
                self._remaining[dep] -= 1
                if not self._remaining[dep]:
                    self.results.pop(dep, None)

    def _map(self, worker, pending, wave_id: int, tasks, indices) -> List:
        """``pool.map`` with each task traced once and adopted in order.

        ``pending`` is the part of the wave's ``tasks`` (built for the
        plan's ``indices``) that no cache resolved.
        """

        tracer = request_tracer() or active_tracer()
        if tracer is None:
            return self._pool.map(worker, pending)
        offsets = {
            id(task): self.plan.tiles[index].offset for task, index in zip(tasks, indices)
        }
        jobs = [
            (
                worker,
                self.tile_span,
                self.category,
                {"offset": repr(offsets.get(id(task)))},
                task,
            )
            for task in pending
        ]
        submit = time.perf_counter()
        results = []
        for slot, (result, tuples) in enumerate(self._pool.map(_traced_task, jobs)):
            tracer.adopt(tuples, lane=f"wave{wave_id}.tile{slot}", submit_time=submit)
            results.append(result)
        return results
