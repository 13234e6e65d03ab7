"""``repro top`` rendering: one frame from a ``/debug/vars`` payload."""

from __future__ import annotations

import json

from repro.obs.history import MetricsHistory
from repro.obs.metrics import MetricsRegistry, json_finite
from repro.obs.top import render_frame

READ = 'repro_serve_request_seconds{route="read"}'
PUT = 'repro_serve_request_seconds{route="put"}'


def _payload() -> dict:
    """A two-point series; only the newest point should be rendered."""

    newest = {
        "rates": {
            "repro_serve_requests_total": 24.0,
            'repro_serve_responses_total{class="2xx"}': 22.0,
            'repro_serve_responses_total{class="5xx"}': 2.0,
            'repro_cache_hits_total{cache="hot-chunk"}': 6.0,
            'repro_cache_misses_total{cache="hot-chunk"}': 2.0,
        },
        "gauges": {
            "repro_serve_gate_active": 2.0,
            "repro_serve_gate_peak": 5.0,
            "repro_serve_gate_max_concurrency": 8.0,
        },
        "quantiles": {
            READ: {"p50": 0.03, "p90": 0.045, "p99": 0.0495, "rate": 2.0, "count": 10.0},
            # An idle histogram: NaN quantiles arrive as null.
            PUT: {"p50": None, "p90": None, "p99": None, "rate": 0.0, "count": 0.0},
        },
    }
    oldest = {
        "rates": {"repro_serve_requests_total": 999.0},
        "gauges": {},
        "quantiles": {},
    }
    return {"interval": 5.0, "capacity": 720, "points": [oldest, newest]}


class TestRenderFrame:
    def test_renders_the_newest_point(self):
        frame = render_frame(_payload(), title="t")
        assert frame.startswith("t\n")
        assert "last 5 s tick" in frame
        assert "requests: 24.0/s" in frame
        assert "999" not in frame
        assert "gate: 2/8 (peak 5)" in frame
        assert "responses: 2xx=22.0/s  5xx=2.0/s" in frame
        assert "4xx" not in frame
        assert "cache hot-chunk: 75.0% hit (6.0 hits/s / 2.0 misses/s)" in frame

    def test_route_table_has_quantile_columns(self):
        lines = render_frame(_payload()).splitlines()
        header = [line for line in lines if line.startswith("route")]
        assert header and header[0].split() == [
            "route", "count", "p50", "ms", "p90", "ms", "p99", "ms"
        ]
        rows = {line.split()[0]: line.split()[1:] for line in lines if line[:4] in ("read", "put ")}
        assert rows["read"] == ["10", "30.00", "45.00", "49.50"]
        assert rows["put"] == ["0", "-", "-", "-"]

    def test_idle_cache_and_empty_payload(self):
        payload = _payload()
        payload["points"][-1]["rates"].update(
            {
                'repro_cache_hits_total{cache="hot-chunk"}': 0.0,
                'repro_cache_misses_total{cache="hot-chunk"}': 0.0,
            }
        )
        assert "cache hot-chunk: - hit" in render_frame(payload)
        frame = render_frame({"interval": 5.0, "points": []})
        assert "requests: 0.0/s" in frame
        assert "route" not in frame

    def test_reads_a_metrics_history_series(self):
        # The key formats render_frame parses are the ones the server's
        # MetricsHistory emits, through the same JSON the wire carries.
        registry = MetricsRegistry()
        history = MetricsHistory((registry,))
        registry.set_counter("repro_serve_requests_total", 0)
        registry.set_counter("repro_cache_hits_total", 0, {"cache": "hot-chunk"})
        history.sample_now()
        registry.set_counter("repro_serve_requests_total", 4)
        registry.set_counter("repro_cache_hits_total", 3, {"cache": "hot-chunk"})
        registry.set_counter("repro_cache_misses_total", 1, {"cache": "hot-chunk"})
        registry.gauge("repro_serve_gate_max_concurrency", 8)
        for _ in range(4):
            registry.observe(
                "repro_serve_request_seconds", 0.03, labels={"route": "read"}
            )
        history.sample_now()
        payload = json.loads(json.dumps(json_finite(history.series())))
        frame = render_frame(payload)
        assert "gate: 0/8" in frame
        assert "cache hot-chunk: 75.0% hit" in frame
        read = [line for line in frame.splitlines() if line.startswith("read")]
        assert read and read[0].split()[1] == "4"
