"""Fault injection: corruption, bad requests, resource limits, disconnects.

The server must degrade per-request, never per-process: a corrupt chunk
yields a clean 500 for regions that need it while the rest of the
dataset (and every other dataset) stays readable; malformed input maps
to 4xx; a client vanishing mid-response releases its concurrency slot.
"""

from __future__ import annotations

import socket
import threading
import time
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.serve.client import ServeError, StoreClient
from repro.serve.server import ServerConfig, ThreadedServer
from repro.store import ArrayStore
from repro.store.snapshot import StoreSnapshot

from tests.serve.conftest import build_store


def _corrupt_chunk(path, linear: int) -> None:
    """Flip one byte inside the payload of chunk ``linear``."""

    snapshot = StoreSnapshot.open(path)
    record = snapshot.index[linear]
    with open(str(path) + "/chunks.bin", "r+b") as handle:
        handle.seek(record.offset + record.length // 2)
        byte = handle.read(1)
        handle.seek(record.offset + record.length // 2)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestCorruption:
    def test_corrupt_chunk_is_a_clean_500_not_an_outage(
        self, serve_root, server, field_2d
    ):
        # Fresh data everywhere: the content-hash cache is keyed on
        # payload sha1, so a pristine decode of the *same bytes* —
        # even via another dataset — would mask the corruption.
        build_store(serve_root / "victim", field_2d)
        build_store(serve_root / "bystander", np.asarray(field_2d)[::-1].copy())
        snapshot = StoreSnapshot.open(serve_root / "victim")
        last = snapshot.n_chunks - 1
        assert last > 0
        bad, good = snapshot.index[last], snapshot.index[0]
        assert (
            bad.offset >= good.offset + good.length
            or good.offset >= bad.offset + bad.length
        ), "test premise: the corrupted payload must not back chunk 0"
        _corrupt_chunk(serve_root / "victim", last)

        with StoreClient(server.url) as client:
            with pytest.raises(ServeError) as err:
                client.get("victim")
            assert err.value.status == 500
            # The failure is repeatable, not sticky in either direction.
            with pytest.raises(ServeError):
                client.get("victim")

            # Regions that avoid the bad payload still decode...
            intact = client.get("victim", (slice(0, 32), slice(0, 32)))
            np.testing.assert_allclose(
                intact, field_2d[:32, :32], atol=1.1e-3
            )
            # ...and unrelated datasets are untouched.
            assert client.get("bystander").shape == field_2d.shape

    def test_corrupt_chunk_client_decode_is_a_clean_500(
        self, serve_root, server, field_2d
    ):
        """``mode=chunks`` ships payloads through the snapshot's CRC-checked
        reader, so corruption fails on the server, not after the bytes
        reached the client."""

        build_store(serve_root / "victim3", np.asarray(field_2d) + 2.0)
        last = ArrayStore.open(serve_root / "victim3").n_chunks - 1
        _corrupt_chunk(serve_root / "victim3", last)
        with StoreClient(server.url) as client:
            with pytest.raises(ServeError) as err:
                client.get("victim3", decode="client")
            assert err.value.status == 500
            assert "checksum" in str(err.value)
            intact = client.get(
                "victim3", (slice(0, 32), slice(0, 32)), decode="client"
            )
            np.testing.assert_allclose(
                intact, np.asarray(field_2d)[:32, :32] + 2.0, atol=1.1e-3
            )

    def test_corrupt_chunk_endpoint_500(self, serve_root, server, field_2d):
        build_store(serve_root / "victim2", field_2d)
        last = ArrayStore.open(serve_root / "victim2").n_chunks - 1
        _corrupt_chunk(serve_root / "victim2", last)
        with StoreClient(server.url) as client:
            status, _ = client._request("GET", f"/ds/victim2/chunk/{last}")
            assert status == 500


class TestBadRequests:
    def test_malformed_region_400(self, serve_root, server, field_2d):
        build_store(serve_root / "br", field_2d)
        with StoreClient(server.url) as client:
            status, body = client._request("GET", "/ds/br?region=banana")
            assert status == 400
            status, _ = client._request("GET", "/ds/br?region=0:10:2")
            assert status == 400  # strided reads are not supported

    def test_out_of_bounds_index_400(self, serve_root, server, field_2d):
        build_store(serve_root / "br2", field_2d)
        with StoreClient(server.url) as client:
            with pytest.raises(ServeError) as err:
                client.get("br2", (field_2d.shape[0] + 5,))
            assert err.value.status == 400

    def test_unknown_mode_400(self, serve_root, server, field_2d):
        build_store(serve_root / "br3", field_2d)
        with StoreClient(server.url) as client:
            status, _ = client._request("GET", "/ds/br3?mode=telepathy")
            assert status == 400

    def test_put_with_garbage_body_400(self, server):
        with StoreClient(server.url) as client:
            status, _ = client._request(
                "PUT", "/ds/garbage", body=b"not npy at all"
            )
            assert status == 400


class TestResourceLimits:
    @pytest.fixture(scope="class")
    def small_server(self, tmp_path_factory, field_2d):
        root = tmp_path_factory.mktemp("limits-root")
        build_store(root / "big", field_2d)  # 96*80 f64 ≈ 61 KiB decoded
        config = ServerConfig(root=str(root), max_body_nbytes=1024)
        with ThreadedServer(config) as threaded:
            yield threaded

    def test_oversized_put_413(self, small_server):
        with StoreClient(small_server.url) as client:
            with pytest.raises(ServeError) as err:
                client.put("fat", np.zeros((32, 32)))
            assert err.value.status == 413

    def test_oversized_read_413(self, small_server):
        with StoreClient(small_server.url) as client:
            with pytest.raises(ServeError) as err:
                client.get("big")
            assert err.value.status == 413
            # A small enough region still goes through.
            values = client.get("big", (slice(0, 8), slice(0, 8)))
            assert values.shape == (8, 8)


class TestDisconnects:
    def test_disconnect_mid_response_releases_gate(
        self, serve_root, server, volume_3d
    ):
        build_store(serve_root / "walkaway", volume_3d, chunk=8)
        parts = urlsplit(server.url)
        for _ in range(3):
            sock = socket.create_connection(
                (parts.hostname, parts.port), timeout=10
            )
            sock.sendall(
                b"GET /ds/walkaway HTTP/1.1\r\n"
                b"Host: x\r\nConnection: close\r\n\r\n"
            )
            sock.recv(64)  # first bytes of the head, then vanish
            sock.close()

        deadline = time.monotonic() + 10
        while server.server.gate_active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.server.gate_active == 0, "disconnect leaked a gate slot"

        # The server still serves the next well-behaved client.
        with StoreClient(server.url) as client:
            values = client.get("walkaway", (slice(0, 8),))
            assert values.shape == (8,) + volume_3d.shape[1:]

    def test_concurrent_disconnects_dont_starve_live_clients(
        self, serve_root, server, volume_3d
    ):
        build_store(serve_root / "mixed", volume_3d, chunk=8)
        parts = urlsplit(server.url)

        def rude() -> None:
            sock = socket.create_connection(
                (parts.hostname, parts.port), timeout=10
            )
            sock.sendall(b"GET /ds/mixed HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.close()

        errors = []

        def polite() -> None:
            try:
                with StoreClient(server.url) as client:
                    client.get("mixed", (slice(0, 16),))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=rude) for _ in range(4)]
        threads += [threading.Thread(target=polite) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        deadline = time.monotonic() + 10
        while server.server.gate_active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.server.gate_active == 0


class TestStatusClassAccounting:
    """Regression for the vanishing error paths: before PR 8 the 500
    branches in ``_gated_dispatch`` bypassed the stats counters (and the
    corruption branch double-counted once the registry landed), so error
    rates were invisible to ``/stats``.  Every response — success, 4xx,
    5xx — must now count exactly once in its status class."""

    @pytest.fixture(scope="class")
    def counting_server(self, tmp_path_factory, field_2d):
        root = tmp_path_factory.mktemp("counting-root")
        build_store(root / "healthy", field_2d)
        build_store(root / "rotten", np.asarray(field_2d)[::-1].copy())
        last = ArrayStore.open(root / "rotten").n_chunks - 1
        _corrupt_chunk(root / "rotten", last)
        config = ServerConfig(root=str(root), max_concurrency=4)
        with ThreadedServer(config) as threaded:
            yield threaded

    def test_every_status_class_counts_exactly_once(self, counting_server):
        with StoreClient(counting_server.url) as client:
            assert client.healthz()                                   # 200
            client.get("healthy", (slice(0, 8), slice(0, 8)))         # 200
            status, _ = client._request("GET", "/ds/absent")          # 404
            assert status == 404
            status, _ = client._request("GET", "/ds/healthy?region=banana")
            assert status == 400
            with pytest.raises(ServeError) as err:                    # 500
                client.get("rotten")
            assert err.value.status == 500
            # The stats call snapshots before its own 200 is counted.
            stats = client.stats()

        metrics = stats["metrics"]
        by_class = {
            cls: metrics.get(
                f'repro_serve_responses_total{{class="{cls}"}}', 0
            )
            for cls in ("2xx", "4xx", "5xx")
        }
        assert by_class["4xx"] == 2
        assert by_class["5xx"] == 1
        assert by_class["2xx"] == 2
        # No request vanishes and none double-counts: classes partition
        # the requests that have finished responding (the in-flight
        # /stats request itself has not counted yet).
        assert sum(by_class.values()) == stats["requests_total"] - 1
