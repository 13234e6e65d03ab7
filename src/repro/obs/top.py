"""``repro top``: render the server's newest metrics-history point.

The CLI polls ``GET /debug/vars`` once per history interval and redraws
one screen of the numbers an operator actually watches: request rate and
latency quantiles per route, gate occupancy, cache hit rates.  Every
number is one the server's :class:`~repro.obs.history.MetricsHistory`
already computed for its newest tick (counter rates, sampled gauges,
histogram quantiles), the same point the ``/debug`` dashboard reads; this
module only lays it out.  It is pure, so it is unit-testable without a
server or a terminal; the polling loop (network, sleep, ANSI clear)
lives in :mod:`repro.cli`.
"""

from __future__ import annotations

import re
from typing import Dict, List

__all__ = ["render_frame"]

_ROUTE_RE = re.compile(r'^repro_serve_request_seconds\{route="([^"]*)"\}$')
_CACHE_RE = re.compile(r'^repro_cache_hits_total\{cache="([^"]*)"\}$')


def render_frame(series: Dict, title: str = "repro top") -> str:
    """One frame of the ``repro top`` display as plain text.

    ``series`` is a ``/debug/vars`` payload; the frame shows its newest
    point, so rates, quantiles and hit ratios cover the last history
    tick.  A payload without points renders zeros.
    """

    points = series.get("points") or [{}]
    point = points[-1]
    rates = point.get("rates", {})
    gauges = point.get("gauges", {})
    quantiles = point.get("quantiles", {})

    lines: List[str] = [title, "=" * len(title)]
    lines.append(f"last {series.get('interval', 0):g} s tick")
    lines.append(
        f"requests: {rates.get('repro_serve_requests_total', 0.0):.1f}/s"
        f"   gate: {gauges.get('repro_serve_gate_active', 0):.0f}"
        f"/{gauges.get('repro_serve_gate_max_concurrency', 0):.0f}"
        f" (peak {gauges.get('repro_serve_gate_peak', 0):.0f})"
    )

    status = [
        f"{cls}={rates[key]:.1f}/s"
        for cls in ("2xx", "4xx", "5xx")
        for key in (f'repro_serve_responses_total{{class="{cls}"}}',)
        if key in rates
    ]
    if status:
        lines.append("responses: " + "  ".join(status))

    routes = sorted(
        (match.group(1), values)
        for key, values in quantiles.items()
        for match in [_ROUTE_RE.match(key)]
        if match
    )
    if routes:
        lines.append("")
        lines.append(
            f"{'route':<10} {'count':>8} {'p50 ms':>9} {'p90 ms':>9} "
            f"{'p99 ms':>9}"
        )
        for route, values in routes:
            row = [f"{route:<10}", f"{values.get('count', 0):>8.0f}"]
            for q in ("p50", "p90", "p99"):
                value = values.get(q)
                row.append(f"{'-':>9}" if value is None else f"{value * 1000:>9.2f}")
            lines.append(" ".join(row))

    caches = sorted(
        match.group(1) for key in rates for match in [_CACHE_RE.match(key)] if match
    )
    if caches:
        lines.append("")
    for cache in caches:
        hits = rates[f'repro_cache_hits_total{{cache="{cache}"}}']
        misses = rates.get(f'repro_cache_misses_total{{cache="{cache}"}}', 0.0)
        total = hits + misses
        ratio = f"{hits / total * 100.0:.1f}%" if total else "-"
        lines.append(
            f"cache {cache}: {ratio} hit "
            f"({hits:.1f} hits/s / {misses:.1f} misses/s)"
        )
    return "\n".join(lines) + "\n"
