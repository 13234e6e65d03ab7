"""Concurrency properties: snapshot isolation, coalescing, gate hygiene.

The central property (ISSUE 6): a region read concurrent with an
in-flight append always decodes either the pre- or the post-append state
bit-for-bit, never a torn mix.  It is checked at two levels — directly
against the store directory (cross-process shape: every reader does a
fresh atomic :meth:`StoreSnapshot.open`) and over HTTP through the
server.  Reference states come from replaying the identical write
sequence into a replica directory: chunk compression is deterministic,
so state *k* of the replica is byte-identical to state *k* of the live
store, and every observed ``(generation, values)`` pair must match its
replica exactly.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.serve.cache import HotChunkCache
from repro.serve.client import StoreClient
from repro.store import ArrayStore, StoreSnapshot
from repro.store.format import StoreCorruptionError

from tests.serve.conftest import build_store


def _append_states(root, name, base, steps):
    """Replay write+appends into ``root/name``; return {generation: values}."""

    store = build_store(root / name, base, chunk=16)
    states = {store.generation: store.read()}
    for step in steps:
        store.append(step)
        states[store.generation] = store.read()
    return states


class TestSnapshotIsolation:
    def test_reads_during_appends_never_torn(self, tmp_path, field_2d):
        base = np.ascontiguousarray(field_2d[:40, :32])
        steps = [
            np.ascontiguousarray(field_2d[40 + 9 * i : 49 + 9 * i, :32])
            for i in range(4)
        ]
        references = _append_states(tmp_path, "replica", base, steps)

        live = build_store(tmp_path / "live", base, chunk=16)
        path = str(tmp_path / "live")
        stop = threading.Event()
        failures = []
        observations = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    snapshot = StoreSnapshot.open(path)
                    values, _ = snapshot.read()
                except StoreCorruptionError:
                    # Permitted transiently (writer replacing files faster
                    # than the retry budget), never as a steady state.
                    continue
                observations.append(snapshot.generation)
                expected = references.get(snapshot.generation)
                if expected is None:
                    failures.append(f"unknown generation {snapshot.generation}")
                elif not np.array_equal(values, expected):
                    failures.append(
                        f"torn read at generation {snapshot.generation}"
                    )

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for step in steps:
                live.append(step)
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures[:5]
        assert len(observations) >= 8, "readers barely ran; test proves nothing"
        # The final state must be observable once the dust settles.
        final, _ = StoreSnapshot.open(path).read()
        np.testing.assert_array_equal(final, references[live.generation])

    def test_open_snapshot_survives_later_append(self, tmp_path, field_2d):
        """An already-open snapshot keeps decoding its own state even
        after the store has grown on disk (appends never move live
        payload bytes)."""

        store = build_store(tmp_path / "s", field_2d[:40], chunk=16)
        snapshot = StoreSnapshot.open(str(tmp_path / "s"))
        before, _ = snapshot.read()
        store.append(np.ascontiguousarray(field_2d[40:57]))
        again, _ = snapshot.read()
        np.testing.assert_array_equal(again, before)
        assert ArrayStore.open(str(tmp_path / "s")).shape[0] == 57

    def test_server_reads_during_appends_never_torn(
        self, serve_root, server, field_2d
    ):
        base = np.ascontiguousarray(field_2d[:40, :32])
        steps = [
            np.ascontiguousarray(field_2d[40 + 9 * i : 49 + 9 * i, :32])
            for i in range(3)
        ]
        references = _append_states(serve_root, "grow-replica", base, steps)
        by_shape = {tuple(v.shape): v for v in references.values()}

        build_store(serve_root / "grow-live", base, chunk=16)
        failures = []
        stop = threading.Event()

        def reader() -> None:
            with StoreClient(server.url) as client:
                while not stop.is_set():
                    values = client.get("grow-live")
                    expected = by_shape.get(tuple(values.shape))
                    if expected is None or not np.array_equal(values, expected):
                        failures.append(f"torn response of shape {values.shape}")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            with StoreClient(server.url) as writer:
                for step in steps:
                    writer.append("grow-live", step)
                    time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures[:5]

    def test_hot_cache_read_report(self, tmp_path, field_2d):
        """Second read through a shared cache decodes nothing."""

        build_store(tmp_path / "s", field_2d, chunk=32)
        snapshot = StoreSnapshot.open(str(tmp_path / "s"))
        cache = HotChunkCache(max_nbytes=64 * 1024 * 1024)
        _, cold = snapshot.read(chunk_cache=cache)
        assert cold.chunks_decoded == snapshot.n_chunks
        assert cold.cache_hits == 0
        values, warm = snapshot.read(chunk_cache=cache)
        assert warm.chunks_decoded == 0
        assert warm.cache_hits == snapshot.n_chunks
        np.testing.assert_array_equal(values, snapshot.read()[0])


class TestCoalescingAndGate:
    def test_concurrent_identical_reads_coalesce_and_share_cache(
        self, serve_root, server, volume_3d
    ):
        build_store(serve_root / "coal", volume_3d, chunk=8)
        server.server.cache.clear()
        coalesced_before = server.server.coalesced_reads
        misses_before = server.server.cache.counters()["misses"]

        n_clients = 8
        barrier = threading.Barrier(n_clients)
        bodies = []
        errors = []

        def fetch() -> None:
            try:
                with StoreClient(server.url) as client:
                    barrier.wait(timeout=30)
                    bodies.append(client.get("coal").tobytes())
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        assert len(set(bodies)) == 1, "concurrent identical reads diverged"
        # At least some of the 8 in-flight duplicates must have coalesced
        # onto the first decode task.
        assert server.server.coalesced_reads > coalesced_before
        # And the decode work happened at most once per chunk: the cache
        # saw no more new misses than there are chunks in the dataset.
        misses = server.server.cache.counters()["misses"] - misses_before
        n_chunks = ArrayStore.open(serve_root / "coal").n_chunks
        assert misses <= n_chunks

    def test_gate_returns_to_idle_and_counts_peak(self, serve_root, server, field_2d):
        build_store(serve_root / "gate", field_2d)
        n_clients = 6
        errors = []

        def fetch() -> None:
            try:
                with StoreClient(server.url) as client:
                    client.get("gate", (slice(0, 64), slice(0, 64)))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        deadline = time.monotonic() + 5
        while server.server.gate_active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.server.gate_active == 0
        assert server.server.gate_peak >= 1
