"""GOOD fixture: a module-level worker handed to the wave executor,
reading and writing its tile through the task's source and sink and
returning the documented payload."""

from repro.utils.parallel import read_region, write_region
from repro.utils.schedule import TilePlan, WaveExecutor


def scale_all(plan: TilePlan, volume, scale):
    with WaveExecutor(plan) as executor:
        sink, view = executor.allocate(volume.shape, volume.dtype)
        source = executor.share(volume)

        def build(index, tile):
            region = tuple(slice(o, o + e) for o, e in zip(tile.offset, tile.extent))
            return source, sink, region, scale

        executor.run_waves(_scale_worker, enumerate(plan.waves()), build)
        return view.copy()


def _scale_worker(task):
    source, sink, region, scale = task
    values = read_region(source, region) * scale
    write_region(sink, region, values)
    return region, float(values.max())
