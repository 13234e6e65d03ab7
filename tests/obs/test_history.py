"""Metrics history ring buffer: sampling, rates, quantiles, windowing."""

from __future__ import annotations

import math
import time

import pytest

from repro.obs.history import MetricsHistory
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


def _history(registry, **kwargs) -> MetricsHistory:
    kwargs.setdefault("interval", 0.05)
    kwargs.setdefault("capacity", 8)
    return MetricsHistory((registry,), **kwargs)


class TestSampling:
    def test_sample_now_records_counters_gauges_histograms(self, registry):
        registry.counter("repro_t_total", 3)
        registry.gauge("repro_t_active", 2)
        registry.observe("repro_t_seconds", 0.02)
        history = _history(registry)
        point = history.sample_now()
        assert point.counters["repro_t_total"] == 3
        assert point.gauges["repro_t_active"] == 2
        assert "repro_t_seconds" in point.histograms

    def test_capacity_bounds_the_ring(self, registry):
        history = _history(registry, capacity=3)
        for _ in range(10):
            history.sample_now()
        assert len(history.points()) == 3

    def test_multiple_registries_merge(self, registry):
        other = MetricsRegistry()
        registry.counter("repro_a_total", 1)
        other.counter("repro_b_total", 2)
        history = MetricsHistory((registry, other), interval=1, capacity=4)
        point = history.sample_now()
        assert point.counters["repro_a_total"] == 1
        assert point.counters["repro_b_total"] == 2

    def test_collectors_run_on_sample(self, registry):
        calls = []

        def collector(reg):
            calls.append(1)
            reg.set_counter("repro_live_total", len(calls))

        registry.register_collector(collector)
        history = _history(registry)
        point = history.sample_now()
        assert calls
        assert point.counters["repro_live_total"] >= 1

    @pytest.mark.parametrize(
        "kwargs", ({"interval": 0.0}, {"interval": -1}, {"capacity": 1})
    )
    def test_bad_construction_rejected(self, registry, kwargs):
        with pytest.raises(ValueError):
            _history(registry, **kwargs)


class TestSeries:
    def test_counters_become_rates(self, registry):
        history = _history(registry)
        registry.counter("repro_t_total", 10)
        history.sample_now()
        time.sleep(0.02)
        registry.counter("repro_t_total", 10)
        history.sample_now()
        series = history.series()
        last = series["points"][-1]
        dt = history.points()[-1].mono - history.points()[0].mono
        assert last["rates"]["repro_t_total"] == pytest.approx(10 / dt)

    def test_first_point_has_no_rates(self, registry):
        registry.counter("repro_t_total", 5)
        history = _history(registry)
        history.sample_now()
        series = history.series()
        assert series["points"][0]["rates"] == {}

    def test_counter_reset_clamps_to_zero(self, registry):
        history = _history(registry)
        registry.counter("repro_t_total", 10)
        history.sample_now()
        registry._counters.clear()  # as after a process restart
        registry.counter("repro_t_total", 1)  # restarted from scratch
        history.sample_now()
        last = history.series()["points"][-1]
        assert last["rates"]["repro_t_total"] == 0.0

    def test_gauges_are_values_not_rates(self, registry):
        history = _history(registry)
        registry.gauge("repro_t_active", 4)
        history.sample_now()
        registry.gauge("repro_t_active", 7)
        history.sample_now()
        points = history.series()["points"]
        assert points[0]["gauges"]["repro_t_active"] == 4
        assert points[1]["gauges"]["repro_t_active"] == 7

    def test_histogram_quantiles_use_the_tick_delta(self, registry):
        history = _history(registry)
        for _ in range(100):
            registry.observe("repro_t_seconds", 0.003)
        history.sample_now()
        time.sleep(0.01)
        for _ in range(100):
            registry.observe("repro_t_seconds", 0.8)
        history.sample_now()
        last = history.series()["points"][-1]
        q = last["quantiles"]["repro_t_seconds"]
        # Only the second tick's slow observations count: p50 sits in the
        # (0.5, 1.0] bucket, nowhere near the first tick's 3ms.
        assert q["p50"] > 0.5
        assert q["count"] == 200.0
        assert q["rate"] > 0

    def test_idle_tick_falls_back_to_cumulative_quantiles(self, registry):
        history = _history(registry)
        registry.observe("repro_t_seconds", 0.003)
        history.sample_now()
        history.sample_now()  # nothing observed in between
        last = history.series()["points"][-1]
        q = last["quantiles"]["repro_t_seconds"]
        assert not math.isnan(q["p50"])
        assert q["rate"] == 0.0

    def test_window_filters_old_points_but_keeps_their_rates(self, registry):
        history = _history(registry)
        registry.counter("repro_t_total", 5)
        history.sample_now()
        time.sleep(0.15)
        registry.counter("repro_t_total", 5)
        history.sample_now()
        series = history.series(window=0.1)
        assert len(series["points"]) == 1
        # The surviving point still rates against the excluded one.
        assert series["points"][0]["rates"]["repro_t_total"] > 0

    def test_series_is_json_shaped(self, registry):
        registry.counter("repro_t_total", 1)
        history = _history(registry)
        history.sample_now()
        series = history.series(window=60)
        assert series["interval"] == history.interval
        assert series["capacity"] == history.capacity
        assert series["window"] == 60
        point = series["points"][0]
        assert {"age", "ts", "rates", "gauges", "quantiles"} <= set(point)


class TestLifecycle:
    def test_ticker_thread_samples_on_interval(self, registry):
        history = _history(registry, interval=0.02)
        history.start()
        try:
            time.sleep(0.15)
        finally:
            history.stop()
        assert len(history.points()) >= 3  # startup point + ticks

    def test_start_twice_raises(self, registry):
        history = _history(registry)
        history.start()
        try:
            with pytest.raises(RuntimeError):
                history.start()
        finally:
            history.stop()

    def test_stop_without_start_is_a_noop(self, registry):
        _history(registry).stop()

    def test_ensure_fresh_samples_only_when_stale(self, registry):
        history = _history(registry, interval=30.0)
        history.ensure_fresh()  # empty ring -> first sample
        assert len(history.points()) == 1
        history.ensure_fresh()  # fresh (age << 30s) -> no new point
        assert len(history.points()) == 1
        history.ensure_fresh(max_age=0.0)  # forced
        assert len(history.points()) == 2
