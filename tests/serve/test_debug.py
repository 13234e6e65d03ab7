"""Flight-recorder endpoints: /debug, /debug/vars, /debug/requests,
/debug/profile — plus the SlowRequestLog retention policy they expose."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.compressors import make_compressor
from repro.serve.client import ServeError, StoreClient
from repro.serve.server import ServerConfig, SlowRequestLog, ThreadedServer
from repro.store import ArrayStore

from .conftest import build_store


@pytest.fixture(scope="module")
def debug_root(tmp_path_factory):
    return tmp_path_factory.mktemp("debug-root")


@pytest.fixture(scope="module")
def debug_server(debug_root):
    config = ServerConfig(
        root=str(debug_root), max_concurrency=8, slow_requests_per_route=2
    )
    with ThreadedServer(config) as threaded:
        yield threaded


def _raw_get(client: StoreClient, path: str, query=None):
    status, payload = client._request("GET", path, query=query)
    return status, payload


class TestSlowRequestLogUnit:
    def test_retains_only_the_slowest_n_per_route(self):
        log = SlowRequestLog(per_route=2)
        for ms in (5, 40, 10, 90, 1):
            log.record("read", ms / 1000.0, {"duration_ms": ms})
        retained = log.snapshot()["read"]
        assert [entry["duration_ms"] for entry in retained] == [90, 40]

    def test_routes_do_not_compete(self):
        log = SlowRequestLog(per_route=1)
        log.record("read", 0.5, {"id": "slow-read"})
        log.record("put", 0.001, {"id": "fast-put"})
        snapshot = log.snapshot()
        assert snapshot["read"] == [{"id": "slow-read"}]
        assert snapshot["put"] == [{"id": "fast-put"}]

    def test_qualifies_matches_retention(self):
        log = SlowRequestLog(per_route=2)
        assert log.qualifies("read", 0.001)  # heap not full yet
        log.record("read", 0.010, {})
        log.record("read", 0.020, {})
        assert not log.qualifies("read", 0.005)  # faster than retained min
        assert log.qualifies("read", 0.015)  # would evict the 10ms entry

    def test_per_route_below_one_rejected(self):
        with pytest.raises(ValueError):
            SlowRequestLog(per_route=0)


class TestDashboard:
    def test_debug_serves_self_contained_html(self, debug_server):
        with StoreClient(debug_server.url) as client:
            status, payload = _raw_get(client, "/debug")
            content_type = client.last_headers.get("content-type", "")
        assert status == 200
        assert content_type.startswith("text/html")
        page = payload.decode("utf-8")
        assert "<html" in page and "</html>" in page
        # Self-contained: config token substituted, no external assets.
        assert "__CONFIG__" not in page
        assert "<script src" not in page
        assert "<link" not in page
        assert "@import" not in page
        # The page drives itself off the other debug endpoints.
        assert "/debug/vars" in page
        assert "/debug/requests" in page


class TestVars:
    def test_series_shape_and_rates(self, debug_server, debug_root, field_2d):
        build_store(debug_root / "vars-ds", field_2d)
        with StoreClient(debug_server.url) as client:
            for _ in range(6):
                client.get("vars-ds")
            debug_server.server.history.sample_now()
            series = client.debug_vars()
        assert series["interval"] == 5.0
        assert series["capacity"] == 720
        points = series["points"]
        assert points
        latest = points[-1]
        assert {"age", "ts", "rates", "gauges", "quantiles"} <= set(latest)
        # Some point in the series saw the burst (later idle ticks are 0).
        peak = max(
            point["rates"].get("repro_serve_requests_total", 0.0)
            for point in points
        )
        assert peak > 0

    def test_window_filters_points(self, debug_server):
        with StoreClient(debug_server.url) as client:
            client.healthz()
            debug_server.server.history.sample_now()
            wide = client.debug_vars(window=3600)
            narrow = client.debug_vars(window=0.25)
        assert len(narrow["points"]) <= len(wide["points"])
        assert narrow["window"] == 0.25
        assert all(p["age"] <= 0.25 for p in narrow["points"])

    @pytest.mark.parametrize("window", ("abc", "-1", "0"))
    def test_bad_window_is_a_400(self, debug_server, window):
        with StoreClient(debug_server.url) as client:
            with pytest.raises(ServeError) as err:
                client.debug_vars(window=window)
        assert err.value.status == 400

    def test_payload_is_strict_json(self, debug_server):
        # Idle histograms produce NaN quantiles; the endpoint must null
        # them out rather than emit bare NaN tokens.
        with StoreClient(debug_server.url) as client:
            status, payload = _raw_get(client, "/debug/vars")
        assert status == 200
        assert b"NaN" not in payload
        json.loads(payload.decode("utf-8"))  # parses strictly


class TestSlowRequests:
    def test_capture_retains_only_slowest_n_under_faults(
        self, debug_server, debug_root
    ):
        # Unique data on purpose: the decode cache is keyed on the chunk
        # checksum recorded in the index, so a pristine decode of the
        # same payload via another dataset would mask the corruption.
        store_path = debug_root / "flaky"
        build_store(store_path, np.random.default_rng(77).random((96, 80)))
        snapshot = ArrayStore.open(store_path).snapshot()
        record = snapshot.index[snapshot.n_chunks - 1]
        with open(str(store_path) + "/chunks.bin", "r+b") as handle:
            handle.seek(record.offset + record.length // 2)
            byte = handle.read(1)
            handle.seek(record.offset + record.length // 2)
            handle.write(bytes([byte[0] ^ 0xFF]))

        with StoreClient(debug_server.url) as client:
            for _ in range(7):  # decode failures -> 500s on route "read"
                with pytest.raises(ServeError):
                    client.get("flaky")
            capture = client.debug_requests()

        assert capture["per_route"] == 2
        read_entries = capture["routes"]["read"]
        # Tail-based: more requests than the cap, only slowest-N kept.
        assert len(read_entries) == 2
        durations = [entry["duration_ms"] for entry in read_entries]
        assert durations == sorted(durations, reverse=True)
        assert any(entry["status"] == 500 for entry in read_entries)

    def test_entries_carry_span_trees(self, debug_server, debug_root, field_2d):
        build_store(debug_root / "traced", field_2d)
        with StoreClient(debug_server.url) as client:
            client.get("traced")
            capture = client.debug_requests()
        entries = [
            entry
            for entries in capture["routes"].values()
            for entry in entries
        ]
        assert entries
        with_spans = [entry for entry in entries if entry["spans"]]
        assert with_spans
        roots = {span["name"] for entry in with_spans for span in entry["spans"]}
        assert "serve.request" in roots
        # Spans are a waterfall: offsets relative to request arrival.
        for entry in with_spans:
            for span in entry["spans"]:
                assert span["start_ms"] >= 0
                assert span["duration_ms"] >= 0


class TestProfile:
    def test_profile_returns_speedscope_with_codec_frames(self, debug_server):
        compressor = make_compressor("sz", error_bound=1e-3)
        payload = np.random.default_rng(11).random((96, 96))
        stop = threading.Event()

        def churn() -> None:
            while not stop.is_set():
                compressor.compress(payload)

        worker = threading.Thread(target=churn, name="codec-churn", daemon=True)
        worker.start()
        try:
            with StoreClient(debug_server.url) as client:
                status, body = _raw_get(
                    client,
                    "/debug/profile",
                    query={"seconds": "0.6", "hz": "250"},
                )
        finally:
            stop.set()
            worker.join()
        assert status == 200
        document = json.loads(body.decode("utf-8"))
        assert document["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert document["repro"]["samples"] > 0
        lanes = {profile["name"] for profile in document["profiles"]}
        assert "codec-churn" in lanes
        # The busy codec thread's samples resolve to repro source frames.
        frames = document["shared"]["frames"]
        assert any("repro" in frame["file"] for frame in frames)

    @pytest.mark.parametrize(
        "query",
        (
            {"seconds": "0"},
            {"seconds": "nope"},
            {"seconds": "61"},  # above PROFILE_MAX_SECONDS
            {"hz": "0"},
            {"hz": "9999"},
        ),
    )
    def test_bad_parameters_are_a_400(self, debug_server, query):
        with StoreClient(debug_server.url) as client:
            status, _ = _raw_get(client, "/debug/profile", query=query)
        assert status == 400

    def test_concurrent_profiles_get_a_429(self, debug_server):
        results = {}

        def run(key: str) -> None:
            with StoreClient(debug_server.url) as client:
                status, _ = _raw_get(
                    client, "/debug/profile", query={"seconds": "0.8"}
                )
                results[key] = status

        first = threading.Thread(target=run, args=("first",))
        first.start()
        time.sleep(0.2)  # let the first request start sampling
        run("second")
        first.join()
        assert results["first"] == 200
        assert results["second"] == 429


class TestLatencyBuckets:
    def test_default_buckets_exposed_in_stats(self, debug_server):
        with StoreClient(debug_server.url) as client:
            stats = client.stats()
        buckets = stats["latency_buckets"]
        assert buckets == sorted(buckets)
        assert len(buckets) >= 5
