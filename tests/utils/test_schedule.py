"""TilePlan and WaveExecutor properties.

Every wave grouping of a plan must be a topological order of its halo
dependency graph — each tile in exactly one wave, every dependency in a
strictly earlier wave — for the volume rule (anti-diagonal and
slab-major waves) and the store rule (grid parity) alike, on random 2D
and 3D grids with edge tiles and singleton axes.  The executor must hold
a tile's result exactly until the last tile borrowing from it is built.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.blocking import grid_offsets
from repro.utils.parallel import ParallelConfig
from repro.utils.schedule import TilePlan, WaveExecutor


@st.composite
def grids(draw):
    """A shape and a tile shape; extents of one make singleton axes and
    shapes that are not tile multiples make edge tiles."""

    ndim = draw(st.integers(min_value=2, max_value=3))
    shape = tuple(draw(st.integers(min_value=1, max_value=20)) for _ in range(ndim))
    edges = tuple(draw(st.integers(min_value=1, max_value=8)) for _ in range(ndim))
    return shape, edges


def wave_of(plan: TilePlan, waves) -> dict:
    """Each tile's wave; asserts the grouping is a topological order."""

    position = {}
    for wave, indices in enumerate(waves):
        assert list(indices) == sorted(indices)
        for index in indices:
            assert index not in position, f"tile {index} sits in two waves"
            position[index] = wave
    assert sorted(position) == list(range(len(plan.tiles)))
    for index, tile in enumerate(plan.tiles):
        for dep in tile.deps:
            assert position[dep] < position[index]
    return position


def grid_index(tile, edges):
    return tuple(o // e for o, e in zip(tile.offset, edges))


def low_neighbour(tile, axis, edges):
    return tuple(o - edges[axis] if a == axis else o for a, o in enumerate(tile.offset))


class TestWavefront:
    @given(grids(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_waves_are_topological(self, grid, halo):
        shape, edges = grid
        plan = TilePlan.wavefront(shape, edges, halo=halo)
        depth = wave_of(plan, plan.waves())
        for index, tile in enumerate(plan.tiles):
            # Anti-diagonals with halo, one independent wave without.
            assert depth[index] == (sum(grid_index(tile, edges)) if halo else 0)

        slab_major = plan.waves(slab_major=True)
        wave_of(plan, slab_major)
        rows = [{plan.tiles[i].offset[0] for i in wave} for wave in slab_major]
        assert all(len(row) == 1 for row in rows)
        starts = [row.pop() for row in rows]
        assert starts == sorted(starts)

    def test_planes_and_context_come_from_low_neighbours(self):
        edges = (8, 8, 8)
        plan = TilePlan.wavefront((20, 16, 9), edges)
        for tile in plan.tiles:
            for axis, dep in enumerate(tile.planes):
                if tile.offset[axis] == 0:
                    assert dep is None
                    continue
                neighbour = plan.tiles[dep]
                assert neighbour.offset == low_neighbour(tile, axis, edges)
                # The neighbour's high face covers this tile's low face.
                assert all(
                    neighbour.extent[a] == tile.extent[a] for a in range(3) if a != axis
                )
            # The context comes from the highest axis with a low neighbour.
            low = [axis for axis in range(3) if tile.offset[axis] > 0]
            assert tile.ref_axis == (low[-1] if low else None)
            expected = None if tile.ref_axis is None else tile.planes[tile.ref_axis]
            assert tile.context == expected


class TestParity:
    @given(grids(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_at_most_two_waves_inside_the_block(self, grid, data):
        shape, edges = grid
        slabs = -(-shape[0] // edges[0])
        base = data.draw(st.integers(min_value=0, max_value=slabs - 1)) * edges[0]
        offsets = [o for o in grid_offsets(shape, edges) if o[0] >= base]
        extents = [
            tuple(min(e, s - o) for e, s, o in zip(edges, shape, offset))
            for offset in offsets
        ]
        plan = TilePlan.parity(offsets, extents, edges)
        assert len(plan.waves()) <= 2
        wave_of(plan, plan.waves())
        wave_of(plan, plan.waves(slab_major=True))
        for tile in plan.tiles:
            if sum(grid_index(tile, edges)) % 2 == 0:
                assert tile.deps == ()
                continue
            if tile.offset[0] == base:
                # The slab below belongs to an earlier write: never borrowed.
                assert tile.planes[0] is None
            for axis, dep in enumerate(tile.planes):
                if dep is None:
                    continue
                anchor = plan.tiles[dep]
                assert sum(grid_index(anchor, edges)) % 2 == 0
                assert anchor.offset == low_neighbour(tile, axis, edges)
            if tile.ref_axis is not None:
                assert tile.context == tile.planes[tile.ref_axis]
                assert all(dep is None for dep in tile.planes[tile.ref_axis + 1 :])

    def test_forward_dependency_rejected(self):
        plan = TilePlan.wavefront((2, 2), (1, 1))
        with pytest.raises(ValueError, match="later tile"):
            TilePlan(tuple(reversed(plan.tiles)))


def _square(task):
    return task * task


def _echo(task):
    return task


class TestWaveExecutor:
    @pytest.mark.parametrize(
        "parallel",
        [None, ParallelConfig(workers=2)],
        ids=["serial", "pooled"],
    )
    def test_results_live_until_the_last_borrower(self, parallel):
        plan = TilePlan.wavefront((4, 5), (1, 1))
        seen = {}
        with WaveExecutor(plan, parallel) as executor:

            def build(index, tile):
                assert all(dep in executor.results for dep in tile.deps)
                return index

            executor.run_waves(
                _square, enumerate(plan.waves()), build, done=seen.__setitem__
            )
            assert executor.results == {}
        assert seen == {index: index * index for index in range(len(plan.tiles))}

    @pytest.mark.parametrize(
        "parallel", [ParallelConfig(workers=1), None], ids=["serial", "default"]
    )
    def test_in_process_run_passes_arrays_through(self, parallel):
        # A serial run (one worker, or no config at all) hands the task's
        # own arrays to the worker and its returned arrays to ``done``:
        # nothing is copied.
        plan = TilePlan.wavefront((4, 4), (2, 2), halo=False)
        volume = np.arange(16.0).reshape(4, 4)
        seen = {}
        with WaveExecutor(plan, parallel) as executor:
            assert not executor.pooled
            executor.run_waves(
                _echo,
                enumerate(plan.waves()),
                lambda index, tile: volume,
                done=seen.__setitem__,
            )
        assert len(seen) == len(plan.tiles)
        assert all(result is volume for result in seen.values())

    def test_process_pool_config_is_pooled(self):
        # No platform probe demotes a process pool to a serial run.
        plan = TilePlan.wavefront((2, 2), (1, 1))
        with WaveExecutor(plan, ParallelConfig(workers=2)) as executor:
            assert executor.pooled

    def test_process_run_returns_arrays_by_value(self):
        plan = TilePlan.wavefront((4, 4), (2, 2), halo=False)
        volume = np.arange(16.0).reshape(4, 4)
        seen = {}
        with WaveExecutor(plan, ParallelConfig(workers=2)) as executor:
            executor.run_waves(
                _echo,
                enumerate(plan.waves()),
                lambda index, tile: volume,
                done=seen.__setitem__,
            )
        for result in seen.values():
            assert result is not volume
            np.testing.assert_array_equal(result, volume)

    def test_done_chooses_what_borrowers_read(self):
        plan = TilePlan.wavefront((3, 3), (1, 1))
        with WaveExecutor(plan) as executor:

            def build(index, tile):
                assert all(executor.results[dep] == -dep for dep in tile.deps)
                return index

            executor.run_waves(
                _square, enumerate(plan.waves()), build, done=lambda i, r: -i
            )
