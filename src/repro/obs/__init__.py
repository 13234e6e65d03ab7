"""Observability layer: span tracing and a unified metrics registry.

The first layer that sees the whole stack at once.  Everything here is
stdlib-only and designed to cost nothing when switched off:

* :mod:`repro.obs.trace` — a nested-span tracer (context-manager /
  decorator API over :func:`time.perf_counter`) whose spans survive the
  :mod:`repro.utils.parallel` worker boundary as picklable tuples and
  re-parent under the submitting span; exportable as Chrome trace-event
  JSON so Perfetto / ``chrome://tracing`` can open a whole
  ``compress_volume`` wavefront.
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and histograms that unifies the repo's scattered ad-hoc counters
  (volume and store ops, hot-chunk cache, serve gate), with a
  Prometheus text-exposition renderer backing ``GET /metrics``.
* :mod:`repro.obs.accesslog` — the JSON-lines access log the serve layer
  writes per request.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY, MetricsRegistry, render_prometheus
from repro.obs.trace import Tracer, install_tracer, span

__all__ = [
    "Tracer",
    "span",
    "install_tracer",
    "MetricsRegistry",
    "REGISTRY",
    "render_prometheus",
]
