"""Serve observability: the /metrics exposition contract, the JSON-lines
access log, request-ID propagation, and the stats metrics snapshot."""

from __future__ import annotations

import json
import re

import pytest

from repro.serve.client import StoreClient
from repro.serve.server import ServerConfig, ThreadedServer

from tests.serve.conftest import build_store

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(inf)?$|^# (HELP|TYPE) .*$"
)


@pytest.fixture(scope="module")
def obs_root(tmp_path_factory):
    return tmp_path_factory.mktemp("obs-root")


@pytest.fixture(scope="module")
def access_log_path(obs_root):
    return obs_root / "access.jsonl"


@pytest.fixture(scope="module")
def obs_server(obs_root, access_log_path, field_2d):
    build_store(obs_root / "obs", field_2d)
    config = ServerConfig(
        root=str(obs_root),
        max_concurrency=4,
        access_log=str(access_log_path),
    )
    with ThreadedServer(config) as threaded:
        yield threaded


class TestMetricsEndpoint:
    def test_exposition_contract(self, obs_server, field_2d):
        with StoreClient(obs_server.url) as client:
            client.get("obs", (slice(0, 16), slice(0, 16)))
            status, payload = client._request("GET", "/metrics")
            content_type = client.last_headers.get("content-type", "")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type

        text = payload.decode("utf-8")
        typed = set()
        for line in text.splitlines():
            if not line:
                continue
            assert _SAMPLE_RE.match(line), f"invalid exposition line: {line!r}"
            if line.startswith("# TYPE "):
                typed.add(line.split()[2])
        # Every sample belongs to a # TYPE-declared family (histogram
        # samples use the _bucket/_sum/_count suffixes of their family).
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            family = re.sub(r"_(bucket|sum|count)$", "", name)
            assert name in typed or family in typed, line

    def test_expected_families_present(self, obs_server):
        with StoreClient(obs_server.url) as client:
            client.healthz()
            _, payload = client._request("GET", "/metrics")
        text = payload.decode("utf-8")
        assert "# TYPE repro_serve_responses_total counter" in text
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert 'repro_serve_responses_total{class="2xx"}' in text
        assert 'repro_cache_hits_total{cache="hot-chunk"}' in text
        assert "repro_serve_gate_max_concurrency 4" in text
        assert 'repro_serve_request_seconds_bucket{route="read",le="+Inf"}' in text

    def test_only_the_hot_chunk_cache_is_published(self, obs_server, field_2d):
        # Ingest and read through the server: no process-wide memo of the
        # library layers may surface as a repro_cache_* series.
        with StoreClient(obs_server.url) as client:
            client.put("ingested", field_2d[:64], chunk=32, halo=True)
            client.append("ingested", field_2d[64:])
            client.get("ingested")
            _, payload = client._request("GET", "/metrics")
        caches = {
            re.search(r'cache="([^"]*)"', line).group(1)
            for line in payload.decode("utf-8").splitlines()
            if line.startswith("repro_cache_")
        }
        assert caches == {"hot-chunk"}


class TestRequestIds:
    def test_inbound_id_is_honored(self, obs_server):
        with StoreClient(obs_server.url) as client:
            client._request(
                "GET", "/healthz", headers={"X-Request-Id": "client-specified-1"}
            )
            assert client.last_headers.get("x-request-id") == "client-specified-1"

    def test_generated_ids_are_unique_and_formatted(self, obs_server):
        seen = set()
        with StoreClient(obs_server.url) as client:
            for _ in range(3):
                client._request("GET", "/healthz")
                request_id = client.last_headers.get("x-request-id")
                assert re.fullmatch(r"req-[0-9a-f]{8}", request_id)
                seen.add(request_id)
        assert len(seen) == 3

    def test_error_responses_carry_the_id(self, obs_server):
        with StoreClient(obs_server.url) as client:
            status, _ = client._request(
                "GET", "/ds/nope", headers={"X-Request-Id": "err-1"}
            )
            assert status == 404
            assert client.last_headers.get("x-request-id") == "err-1"


class TestAccessLog:
    def test_jsonl_schema(self, obs_server, access_log_path):
        with StoreClient(obs_server.url) as client:
            client._request(
                "GET", "/healthz", headers={"X-Request-Id": "schema-probe"}
            )
        lines = access_log_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        probe = [r for r in records if r["request_id"] == "schema-probe"]
        assert len(probe) == 1
        record = probe[0]
        assert set(record) == {
            "ts",
            "request_id",
            "method",
            "path",
            "status",
            "duration_ms",
            "bytes",
        }
        assert record["method"] == "GET"
        assert record["path"] == "/healthz"
        assert record["status"] == 200
        assert isinstance(record["duration_ms"], float)
        assert record["duration_ms"] >= 0
        assert isinstance(record["bytes"], int)
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z", record["ts"]
        )

    def test_errors_are_logged_too(self, obs_server, access_log_path):
        with StoreClient(obs_server.url) as client:
            client._request(
                "GET", "/ds/missing-ds", headers={"X-Request-Id": "logged-404"}
            )
        records = [
            json.loads(line) for line in access_log_path.read_text().splitlines()
        ]
        match = [r for r in records if r["request_id"] == "logged-404"]
        assert len(match) == 1
        assert match[0]["status"] == 404


class TestStatsMetrics:
    def test_stats_exposes_canonical_names(self, obs_server):
        with StoreClient(obs_server.url) as client:
            client.get("obs", (slice(0, 8), slice(0, 8)))
            stats = client.stats()
        # The keys the benchmark and the dashboard read stay...
        assert {"requests_total", "gate", "hot_chunk_cache"} <= set(stats)
        # ...responses by status live only in the registry snapshot.
        assert "responses_by_status" not in stats
        metrics = stats["metrics"]
        assert metrics["repro_serve_requests_total"] >= 1
        assert 'repro_serve_responses_total{class="2xx"}' in metrics
        assert 'repro_cache_hits_total{cache="hot-chunk"}' in metrics
        assert (
            metrics["repro_serve_gate_max_concurrency"]
            == stats["gate"]["max_concurrency"]
        )
