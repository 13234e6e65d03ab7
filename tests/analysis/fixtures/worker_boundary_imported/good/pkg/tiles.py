"""GOOD fixture: a tile worker that returns a named result tuple.

It is defined here and submitted from ``pipeline.py``."""

from typing import NamedTuple

import numpy as np


class EncodedTile(NamedTuple):
    values: np.ndarray


def encode_tile(task):
    return EncodedTile(np.asarray(task))
