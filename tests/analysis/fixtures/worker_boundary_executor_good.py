"""GOOD fixture: a module-level worker handed to the wave executor; the
task carries its tile by value and the worker returns the documented
``(values, summary)`` payload, which the submitting side writes into the
output."""

import numpy as np

from repro.utils.schedule import TilePlan, WaveExecutor


def scale_all(plan: TilePlan, volume, scale):
    out = np.empty_like(volume)

    def region(tile):
        return tuple(slice(o, o + e) for o, e in zip(tile.offset, tile.extent))

    def build(index, tile):
        return np.ascontiguousarray(volume[region(tile)]), scale

    def done(index, result):
        values, _ = result
        out[region(plan.tiles[index])] = values
        return None

    with WaveExecutor(plan) as executor:
        executor.run_waves(_scale_worker, enumerate(plan.waves()), build, done=done)
    return out


def _scale_worker(task):
    tile, scale = task
    values = tile * scale
    return values, float(values.max())
