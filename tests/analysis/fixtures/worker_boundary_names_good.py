"""GOOD fixture: workers that hold arrays in names but return the
documented payload, a tuple or a named result object."""

from dataclasses import dataclass

import numpy as np

from repro.utils.parallel import parallel_map


@dataclass(frozen=True)
class Decoded:
    values: np.ndarray
    peak: float


def decode_all(tasks):
    parallel_map(_as_tuple, tasks)
    parallel_map(_as_record, tasks)
    parallel_map(_as_list, tasks)


def _as_tuple(task):
    payload, shape = task
    values = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return values, float(values.max())


def _as_record(task):
    payload, shape = task
    values, peak = np.frombuffer(payload, dtype="<f8").reshape(shape), 0.0
    return Decoded(values, peak)


def _as_list(task):
    payload, _ = task
    return np.frombuffer(payload, dtype="<f8").tolist()
