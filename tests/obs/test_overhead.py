"""Overhead ceilings of the observability layer on a real compress.

The true overheads sit far below a compress's run-to-run noise, so both
bars time the per-event cost directly and scale it by the workload's
event count instead of differencing two timed runs.
"""

from __future__ import annotations

import threading
import time

from repro.datasets.miranda import generate_miranda_like_volume
from repro.obs.profile import DEFAULT_HZ, SamplingProfiler
from repro.obs.trace import Tracer, install_tracer, span
from repro.volumes.pipeline import compress_volume

VOLUME = generate_miranda_like_volume((64, 64, 64), seed=2021)


def _compress():
    return compress_volume(VOLUME, "sz", 1e-3, tile_shape=(32, 32, 32), cache=False)


def test_disabled_tracing_overhead():
    """No-op span cost x spans one traced compress records, over that
    compress's untraced time: <= 2%."""

    tracer = Tracer()
    with install_tracer(tracer):
        _compress()
    spans = len(tracer.spans())
    compress_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _compress()
        compress_s = min(compress_s, time.perf_counter() - start)
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.noop"):
            pass
    overhead = (time.perf_counter() - start) / calls * spans / compress_s
    assert spans > 0 and overhead <= 0.02, f"{overhead:.4f} of a compress ({spans} spans)"


def test_live_profiler_overhead():
    """One stack walk against live compress stacks x DEFAULT_HZ is the
    share of wall time the sampler holds the GIL: <= 5%."""

    stop = threading.Event()

    def churn() -> None:
        while not stop.is_set():
            _compress()

    worker = threading.Thread(target=churn, name="overhead-load", daemon=True)
    worker.start()
    try:
        profiler, own_id = SamplingProfiler(hz=DEFAULT_HZ), threading.get_ident()
        rounds = 500
        start = time.perf_counter()
        for _ in range(rounds):
            profiler._sample_once(own_id)
        sample_s = (time.perf_counter() - start) / rounds
    finally:
        stop.set()
        worker.join()
    overhead = sample_s * DEFAULT_HZ
    assert overhead <= 0.05, f"{overhead:.4f} of wall time at {DEFAULT_HZ} Hz"
