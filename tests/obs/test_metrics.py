"""Metrics registry unit tests: series semantics, the Prometheus text
exposition contract, collectors, and the cache-counter naming bridge."""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    publish_cache_counters,
    render_prometheus,
)


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        reg.counter("repro_x_total", 4)
        assert reg.value("repro_x_total") == 5

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", labels={"route": "read"})
        reg.counter("repro_x_total", labels={"route": "chunk"})
        reg.counter("repro_x_total", labels={"route": "read"})
        assert reg.value("repro_x_total", {"route": "read"}) == 2
        assert reg.value("repro_x_total", {"route": "chunk"}) == 1
        assert reg.value("repro_x_total") is None

    def test_set_counter_overwrites(self):
        reg = MetricsRegistry()
        reg.set_counter("repro_x_total", 10)
        reg.set_counter("repro_x_total", 12)
        assert reg.value("repro_x_total") == 12

    def test_gauge_holds_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("repro_gate_active", 3)
        reg.gauge("repro_gate_active", 1)
        assert reg.value("repro_gate_active") == 1

    def test_reset_clears_series_keeps_collectors(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda r: r.gauge("repro_live", 7))
        reg.counter("repro_x_total")
        reg.reset()
        assert reg.value("repro_x_total") is None
        assert reg.snapshot()["repro_live"] == 7


class TestHistograms:
    def test_buckets_are_cumulative_in_render(self):
        reg = MetricsRegistry()
        for value in (0.03, 0.2, 9.0):
            reg.observe("repro_lat_seconds", value)
        text = reg.render()
        assert 'repro_lat_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_lat_seconds_bucket{le="0.25"} 2' in text
        assert 'repro_lat_seconds_bucket{le="5"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text
        assert "repro_lat_seconds_sum 9.23" in text

    def test_le_label_renders_last_after_sorted_labels(self):
        reg = MetricsRegistry()
        reg.observe("repro_lat_seconds", 0.01, labels={"route": "read"})
        text = reg.render()
        assert 'repro_lat_seconds_bucket{route="read",le="0.01"} 1' in text

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestExpositionContract:
    def test_help_type_and_ordering(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total", help="B things.")
        reg.counter("repro_a_total", help="A things.")
        reg.gauge("repro_level", 2.5, help="Level.")
        text = reg.render()
        lines = text.splitlines()
        assert "# HELP repro_a_total A things." in lines
        assert "# TYPE repro_a_total counter" in lines
        assert "# TYPE repro_level gauge" in lines
        assert lines.index("# TYPE repro_a_total counter") < lines.index(
            "# TYPE repro_b_total counter"
        )
        assert "repro_level 2.5" in lines
        assert text.endswith("\n")

    def test_first_help_wins(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", help="First.")
        reg.counter("repro_x_total", help="Second.")
        assert "# HELP repro_x_total First." in reg.render()

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", labels={"path": 'a"b\\c\nd'})
        assert '{path="a\\"b\\\\c\\nd"}' in reg.render()

    def test_integer_values_render_without_decimal(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", 3)
        assert "repro_x_total 3" in reg.render().splitlines()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_render_prometheus_concatenates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_a_total")
        b.counter("repro_b_total")
        text = render_prometheus((a, b))
        assert "repro_a_total 1" in text
        assert "repro_b_total 1" in text


class TestCollectors:
    def test_collectors_run_on_render_and_snapshot(self):
        reg = MetricsRegistry()
        state = {"hits": 0}
        reg.register_collector(
            lambda r: r.set_counter("repro_hits_total", state["hits"])
        )
        state["hits"] = 9
        assert reg.snapshot()["repro_hits_total"] == 9
        state["hits"] = 11
        assert "repro_hits_total 11" in reg.render()

    def test_duplicate_registration_ignored(self):
        reg = MetricsRegistry()
        calls = []

        def collect(r):
            calls.append(1)

        reg.register_collector(collect)
        reg.register_collector(collect)
        reg.snapshot()
        assert len(calls) == 1

    def test_snapshot_can_skip_collectors(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda r: r.gauge("repro_live", 1))
        assert "repro_live" not in reg.snapshot(run_collectors=False)


class TestCacheCounterBridge:
    def test_known_keys_map_unknown_keys_ignored(self):
        reg = MetricsRegistry()
        publish_cache_counters(
            reg,
            "hot-chunk",
            {
                "hits": 5,
                "misses": 2,
                "evictions": 1,
                "coalesced": 3,
                "entries": 4,
                "nbytes": 1024,
                "max_nbytes": 4096,
                "mystery": 99,
            },
        )
        labels = {"cache": "hot-chunk"}
        assert reg.value("repro_cache_hits_total", labels) == 5
        assert reg.value("repro_cache_misses_total", labels) == 2
        assert reg.value("repro_cache_evictions_total", labels) == 1
        assert reg.value("repro_cache_entries", labels) == 4
        assert reg.value("repro_cache_nbytes", labels) == 1024
        assert reg.value("repro_cache_max_nbytes", labels) == 4096
        # No cache reports a coalesced count; the key is ignored like any other.
        assert all(
            "mystery" not in key and "coalesced" not in key for key in reg.snapshot()
        )

    def test_partial_dicts_publish_partially(self):
        reg = MetricsRegistry()
        publish_cache_counters(reg, "experiment", {"hits": 1, "misses": 0})
        assert reg.value("repro_cache_hits_total", {"cache": "experiment"}) == 1
        assert reg.value("repro_cache_entries", {"cache": "experiment"}) is None
