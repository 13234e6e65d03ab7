"""Deliberately BAD fixture: a tile worker that returns a bare ndarray.

It is defined here and submitted from ``pipeline.py``, so the rule must
follow the import to see its returns."""

import numpy as np


def encode_tile(task):
    return np.asarray(task)
