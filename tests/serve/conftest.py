"""Fixtures for the serve-layer tests.

One module-scoped :class:`ThreadedServer` per test module (startup costs
a thread + socket, teardown joins the loop); datasets are store
directories dropped into the served root — the server opens them per
request, so tests can create fixtures directly on disk.  Tests that
mutate or corrupt datasets use their own names to stay independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.serve.server import ServerConfig, ThreadedServer
from repro.store import ArrayStore

BOUND = 1e-3
TOL = BOUND * (1.0 + 1e-9)


def build_store(path, array, *, chunk=32, codec="sz", **kwargs) -> ArrayStore:
    store = ArrayStore.create(
        path, chunk_shape=chunk, codec=codec, error_bound=BOUND, **kwargs
    )
    store.write(np.asarray(array))
    return store


@pytest.fixture(scope="module")
def field_2d() -> np.ndarray:
    return generate_gaussian_field((96, 80), correlation_range=12.0, seed=5)


@pytest.fixture(scope="module")
def volume_3d() -> np.ndarray:
    return generate_miranda_like_volume((32, 32, 32), seed=6)


@pytest.fixture(scope="module")
def serve_root(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-root")


@pytest.fixture(scope="module")
def server(serve_root):
    config = ServerConfig(root=str(serve_root), max_concurrency=8)
    with ThreadedServer(config) as threaded:
        yield threaded
