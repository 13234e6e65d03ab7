"""Deliberately BAD fixture at a ``utils/parallel.py`` path: the module
that owns the pools gets no exemption for a hand-built segment."""

from multiprocessing import shared_memory


def segment(size):
    return shared_memory.SharedMemory(create=True, size=size)
