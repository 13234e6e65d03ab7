"""Submits the worker ``tiles.py`` defines; nothing to flag here."""

from pkg.tiles import encode_tile


def compress(executor, waves, build):
    executor.run_waves(encode_tile, waves, build)
