"""GOOD fixture: the repo's worker protocol — a module-level function
over self-contained task tuples, returning the documented payload tuple;
bulk arrays travel by value in the task and its result, never through
hand-rolled SharedMemory segments."""

import numpy as np

from repro.utils.parallel import ParallelConfig, WorkerPool, parallel_map


def run_all(tasks):
    return list(parallel_map(_encode_worker, tasks))


def run_pooled(volume, regions, scale):
    out = np.empty_like(volume)
    with WorkerPool(ParallelConfig(2)) as pool:
        tasks = [(np.ascontiguousarray(volume[region]), scale) for region in regions]
        payloads = pool.map(_scale_worker, tasks)
    for region, (values, _) in zip(regions, payloads):
        out[region] = values
    return out, payloads


def _encode_worker(task):
    tile, scale = task
    payload = np.asarray(tile) * scale
    return payload.tobytes(), payload.shape


def _scale_worker(task):
    tile, scale = task
    values = tile * scale
    return values, float(values.max())
