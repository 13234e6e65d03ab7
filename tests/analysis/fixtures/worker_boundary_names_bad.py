"""Deliberately BAD fixture: workers that return a bare ndarray through a
method chain or a name, which a check of the returned call alone misses."""

import numpy as np

from repro.utils.parallel import parallel_map


def decode_all(tasks):
    parallel_map(_chained, tasks)
    parallel_map(_named, tasks)
    parallel_map(_unpacked, tasks)
    parallel_map(_renamed, tasks)


def _chained(task):
    payload, shape = task
    return np.frombuffer(payload, dtype="<f8").reshape(shape)


def _named(task):
    payload, shape = task
    values = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return values


def _unpacked(task):
    payload, shape = task
    values, scale = np.frombuffer(payload, dtype="<f8"), 2.0
    return values


def _renamed(task):
    payload, shape = task
    values = np.frombuffer(payload, dtype="<f8")
    tile = values.reshape(shape)
    out = tile
    return out
