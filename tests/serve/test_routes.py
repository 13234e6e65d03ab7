"""The route table: every route's method, status and ``route=`` label.

The label is read back from the server's latency histogram
(``repro_serve_request_seconds{route=...}``), the series the ``/debug``
dashboard, ``repro top`` and the slow-request capture all key on.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.serve.client import StoreClient
from repro.serve.server import ServerConfig, ThreadedServer

from .conftest import build_store


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def routes_server(tmp_path_factory, field_2d):
    root = tmp_path_factory.mktemp("routes-root")
    build_store(root / "rt", field_2d)
    build_store(root / "rt-grow", field_2d)
    with ThreadedServer(ServerConfig(root=str(root))) as threaded:
        yield threaded


def _label_counts(threaded) -> dict:
    histograms = threaded.server.registry.histogram_snapshot(run_collectors=False)
    prefix = 'repro_serve_request_seconds{route="'
    return {
        key[len(prefix) : -2]: value["count"]
        for key, value in histograms.items()
        if key.startswith(prefix)
    }


ROWS = [
    # method, target, body, status, route label
    ("GET", "/healthz", None, 200, "healthz"),
    ("GET", "/stats", None, 200, "stats"),
    ("GET", "/metrics", None, 200, "metrics"),
    ("GET", "/debug", None, 200, "debug"),
    ("GET", "/debug/vars", None, 200, "debug"),
    ("GET", "/debug/requests", None, 200, "debug"),
    ("GET", "/debug/profile?seconds=0.05", None, 200, "debug"),
    ("GET", "/ds", None, 200, "ls"),
    ("PUT", "/ds/rt-put", "field", 200, "put"),
    ("GET", "/ds/rt?region=0:8,0:8", None, 200, "read"),
    ("GET", "/ds/rt/info", None, 200, "info"),
    ("POST", "/ds/rt-grow/append", "slab", 200, "append"),
    ("POST", "/ds/rt/compact", None, 200, "compact"),
    ("GET", "/ds/rt/chunk/0", None, 200, "chunk"),
    # Unmatched paths.
    ("GET", "/", None, 404, "other"),
    ("GET", "//", None, 404, "other"),
    ("GET", "/nope", None, 404, "other"),
    ("GET", "/ds/rt/bogus", None, 404, "other"),
    # A matched path under a method no row lists.
    ("POST", "/stats", None, 405, "stats"),
    ("DELETE", "/healthz", None, 405, "healthz"),
    ("POST", "/metrics", None, 405, "metrics"),
    ("POST", "/debug/vars", None, 405, "debug"),
    ("POST", "/ds", None, 405, "ls"),
    ("DELETE", "/ds/rt", None, 405, "read"),
    ("POST", "/ds/rt/info", None, 405, "info"),
    ("GET", "/ds/rt/append", None, 405, "append"),
    ("GET", "/ds/rt/compact", None, 405, "compact"),
    ("PUT", "/ds/rt/chunk/0", None, 405, "chunk"),
    # Matched routes whose handler refuses the request.
    ("GET", "/ds/bad!name", None, 400, "read"),
    ("GET", "/ds/missing/info", None, 404, "info"),
    ("POST", "/ds/missing/compact", None, 404, "compact"),
    ("GET", "/ds/rt/chunk/x", None, 400, "chunk"),
    ("GET", "/ds/rt/chunk/999", None, 404, "chunk"),
]


@pytest.mark.parametrize(
    "method, target, body, status, label",
    ROWS,
    ids=[f"{row[0]} {row[1]}" for row in ROWS],
)
def test_route_status_and_label(routes_server, field_2d, method, target, body, status, label):
    payload = {
        None: b"",
        "field": _npy(field_2d),
        "slab": _npy(field_2d[:16]),
    }[body]
    before = _label_counts(routes_server)
    with StoreClient(routes_server.url) as client:
        got, _ = client._request(method, target, body=payload)
    after = _label_counts(routes_server)
    assert got == status
    grown = {
        key: after[key] - before.get(key, 0) for key in after if after[key] != before.get(key, 0)
    }
    assert grown == {label: 1}


@pytest.mark.parametrize(
    "method, target, allowed",
    [
        ("POST", "/ds/rt/info", "GET"),
        ("GET", "/ds/rt/append", "POST"),
        ("DELETE", "/ds/rt", "GET"),
    ],
)
def test_wrong_method_names_the_allowed_one(routes_server, method, target, allowed):
    with StoreClient(routes_server.url) as client:
        status, payload = client._request(method, target)
    assert status == 405
    assert f"{method} not allowed here (use {allowed})".encode() in payload
