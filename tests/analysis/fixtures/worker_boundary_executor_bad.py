"""Deliberately BAD fixture: workers handed to the wave executor — a
lambda, a closure, and a module-level worker returning a bare ndarray
instead of its documented payload."""

import numpy as np

from repro.utils.schedule import TilePlan, WaveExecutor


def decode_all(plan: TilePlan, tasks):
    def decode(task):
        return task

    def build(index, tile):
        return tasks[index]

    waves = list(enumerate(plan.waves()))
    with WaveExecutor(plan) as executor:
        executor.run_waves(lambda task: task, waves, build)
        executor.run_waves(decode, waves, build)
        executor.run_waves(_decode_worker, waves, build)


def _decode_worker(task):
    return np.asarray(task)
