"""Unified metrics registry with Prometheus text exposition.

Each number the library and the serve layer report has one source: the
layer that owns it counts it once (a cache's ``counters()``, a store
read's registry counter) and this registry publishes it under one name.
``/metrics``, serve ``stats`` and the ``/debug`` dashboard are views of
those counts, not second copies.

* :class:`MetricsRegistry` — thread-safe counters, gauges and
  histograms, all name + sorted-label keyed.
* **Collectors** — modules that own live state (caches, gates) register
  a callback that publishes into the registry at render time, so the
  registry never needs to import the layers it observes.
* :func:`render_prometheus` — Prometheus text exposition (``# HELP`` /
  ``# TYPE``, ``_bucket{le=}`` / ``_sum`` / ``_count`` histograms)
  backing the serve layer's ``GET /metrics``.

Naming scheme (the "documented naming scheme" of the counter
unification): ``repro_<subsystem>_<quantity>_<unit-or-total>`` with
sources distinguished by labels, e.g.::

    repro_cache_hits_total{cache="hot-chunk"}
    repro_volume_tiles_compressed_total{compressor="sz"}
    repro_store_chunks_decoded_total
    repro_serve_requests_total{route="chunk"}
    repro_serve_responses_total{class="5xx"}
    repro_serve_request_seconds_bucket{route="chunk",le="0.05"}

The process-wide :data:`REGISTRY` serves the library layers; the serve
layer builds one private registry per server so tests stay isolated.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "render_prometheus",
    "histogram_quantile",
    "json_finite",
    "DEFAULT_LATENCY_BUCKETS",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for request/stage latencies, in seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Histogram:
    __slots__ = ("buckets", "bucket_counts", "total", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                break


class MetricsRegistry:
    """Thread-safe counter/gauge/histogram registry.

    Metric names follow ``repro_<subsystem>_<quantity>[_total]``; label
    maps distinguish sources (``{"cache": "experiment"}``).  ``help``
    text is remembered from the first touch of each name and emitted as
    ``# HELP`` in the exposition output.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelItems, float]] = {}
        self._gauges: Dict[str, Dict[LabelItems, float]] = {}
        self._histograms: Dict[str, Dict[LabelItems, _Histogram]] = {}
        self._help: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- writing ---------------------------------------------------------
    def counter(
        self,
        name: str,
        value: float = 1.0,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> None:
        """Add ``value`` (default 1) to a monotonically increasing counter."""

        items = _label_items(labels)
        with self._lock:
            self._remember_help(name, help)
            series = self._counters.setdefault(name, {})
            series[items] = series.get(items, 0.0) + value

    def set_counter(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> None:
        """Publish an externally tracked cumulative total (collector use)."""

        items = _label_items(labels)
        with self._lock:
            self._remember_help(name, help)
            self._counters.setdefault(name, {})[items] = float(value)

    def gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> None:
        """Set a gauge to its current value."""

        items = _label_items(labels)
        with self._lock:
            self._remember_help(name, help)
            self._gauges.setdefault(name, {})[items] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> None:
        """Record one observation into a histogram series."""

        items = _label_items(labels)
        with self._lock:
            self._remember_help(name, help)
            bounds = self._buckets.setdefault(name, tuple(sorted(buckets)))
            series = self._histograms.setdefault(name, {})
            histogram = series.get(items)
            if histogram is None:
                histogram = series[items] = _Histogram(bounds)
            histogram.observe(float(value))

    def _remember_help(self, name: str, help: str) -> None:
        if help and name not in self._help:
            self._help[name] = help

    # -- collectors ------------------------------------------------------
    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a render-time callback that publishes live state.

        Modules owning caches/gates call this once at import or
        construction time; the callback runs on every :meth:`render` and
        on :meth:`snapshot`.  Duplicate registrations of the same
        callable are ignored (safe under repeated imports/instances).
        """

        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    # -- reading ---------------------------------------------------------
    def snapshot(self, run_collectors: bool = True) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` map of counters and gauges."""

        if run_collectors:
            self._run_collectors()
        flat: Dict[str, float] = {}
        with self._lock:
            for table in (self._counters, self._gauges):
                for name, series in table.items():
                    for items, value in series.items():
                        flat[name + _format_labels(items)] = value
        return flat

    def histogram_snapshot(
        self, run_collectors: bool = True
    ) -> Dict[str, Dict]:
        """Flat ``name{labels} -> histogram state`` map.

        Each value carries ``buckets`` (``(upper bound, cumulative
        count)`` pairs, ascending, finite bounds only), ``count`` and
        ``sum`` — exactly what :func:`histogram_quantile` and the
        metrics-history layer need to derive quantiles and rates without
        re-parsing exposition text.
        """

        if run_collectors:
            self._run_collectors()
        flat: Dict[str, Dict] = {}
        with self._lock:
            for name, series in self._histograms.items():
                for items, histogram in series.items():
                    cumulative = 0
                    buckets = []
                    for bound, count in zip(
                        histogram.buckets, histogram.bucket_counts
                    ):
                        cumulative += count
                        buckets.append((bound, cumulative))
                    flat[name + _format_labels(items)] = {
                        "buckets": buckets,
                        "count": histogram.count,
                        "sum": histogram.total,
                    }
        return flat

    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of everything."""

        self._run_collectors()
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._counters):
                self._render_simple(lines, name, self._counters[name], "counter")
            for name in sorted(self._gauges):
                self._render_simple(lines, name, self._gauges[name], "gauge")
            for name in sorted(self._histograms):
                self._render_histogram(lines, name, self._histograms[name])
        return "\n".join(lines) + ("\n" if lines else "")

    def _render_simple(
        self,
        lines: List[str],
        name: str,
        series: Dict[LabelItems, float],
        kind: str,
    ) -> None:
        help_text = self._help.get(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for items in sorted(series):
            lines.append(
                f"{name}{_format_labels(items)} {_format_value(series[items])}"
            )

    def _render_histogram(
        self, lines: List[str], name: str, series: Dict[LabelItems, _Histogram]
    ) -> None:
        help_text = self._help.get(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} histogram")
        for items in sorted(series):
            histogram = series[items]
            cumulative = 0
            for bound, count in zip(histogram.buckets, histogram.bucket_counts):
                cumulative += count
                bucket_items = items + (("le", _format_value(bound)),)
                lines.append(
                    f"{name}_bucket{_format_labels(bucket_items)} {cumulative}"
                )
            inf_items = items + (("le", "+Inf"),)
            lines.append(
                f"{name}_bucket{_format_labels(inf_items)} {histogram.count}"
            )
            lines.append(
                f"{name}_sum{_format_labels(items)} "
                f"{_format_value(histogram.total)}"
            )
            lines.append(f"{name}_count{_format_labels(items)} {histogram.count}")


#: Process-wide registry used by the library layers (pipelines, store).
REGISTRY = MetricsRegistry()


def render_prometheus(
    registries: Optional[Iterable[MetricsRegistry]] = None,
) -> str:
    """Render one or more registries as a single exposition document.

    Default is the process-wide :data:`REGISTRY`.  The serve layer passes
    ``(server_registry, REGISTRY)`` so ``GET /metrics`` shows both the
    per-server request metrics and the library-layer cache/store metrics;
    the two use disjoint metric names, so concatenation is valid
    exposition output.
    """

    if registries is None:
        registries = (REGISTRY,)
    parts = [registry.render() for registry in registries]
    return "".join(part for part in parts if part)


def histogram_quantile(
    buckets: Sequence[Tuple[float, float]], count: float, q: float
) -> float:
    """Estimate the ``q``-quantile from cumulative histogram buckets.

    ``buckets`` is ascending ``(upper bound, cumulative count)`` pairs
    (finite bounds; observations above the last bound live only in
    ``count``).  Linear interpolation within the containing bucket —
    the same estimator as PromQL's ``histogram_quantile`` — so the
    result is exact only at bucket boundaries, which is the resolution
    histograms have anyway.  Returns NaN for an empty histogram; values
    beyond the last finite bound clamp to it (the +Inf bucket has no
    upper edge to interpolate toward).
    """

    if count <= 0 or not 0.0 <= q <= 1.0:
        return float("nan")
    rank = q * count
    previous_bound = 0.0
    previous_cum = 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            in_bucket = cumulative - previous_cum
            if in_bucket <= 0:
                return bound
            fraction = (rank - previous_cum) / in_bucket
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound = bound
        previous_cum = cumulative
    return buckets[-1][0] if buckets else float("nan")


def json_finite(value):
    """``value`` with every non-finite float replaced by ``None``.

    Dicts, lists and tuples are walked recursively.  Strict JSON parsers
    (browsers' ``response.json()``, jq) reject bare ``NaN`` tokens, which
    idle-histogram quantiles and unmeasured statistics would otherwise
    produce.
    """

    if isinstance(value, dict):
        return {key: json_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def publish_cache_counters(
    registry: MetricsRegistry, cache_label: str, counters: Mapping[str, float]
) -> None:
    """Publish a cache's ``counters()`` dict under the unified cache names.

    Understands the keys the repo's caches expose (``hits``, ``misses``,
    ``evictions``, ``entries``, ``nbytes``, ``max_nbytes``) and ignores
    anything else.
    """

    as_counter = {
        "hits": "repro_cache_hits_total",
        "misses": "repro_cache_misses_total",
        "evictions": "repro_cache_evictions_total",
    }
    as_gauge = {
        "entries": "repro_cache_entries",
        "nbytes": "repro_cache_nbytes",
        "max_nbytes": "repro_cache_max_nbytes",
    }
    labels = {"cache": cache_label}
    for key, name in as_counter.items():
        if key in counters:
            registry.set_counter(
                name,
                counters[key],
                labels,
                help=f"Cumulative cache {key} by cache name.",
            )
    for key, name in as_gauge.items():
        if key in counters:
            registry.gauge(
                name,
                counters[key],
                labels,
                help=f"Current cache {key} by cache name.",
            )
