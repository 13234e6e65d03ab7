"""Atomic snapshot opens: torn meta/index states are detected, not read.

Regression suite for the stale-index bug (ISSUE 6 satellite): before
``index_sha1`` landed in ``meta.json``, a reader racing a cross-process
append could pair a fresh ``index.bin`` with a stale ``meta.json`` (or
vice versa) and decode garbage shapes.  Now every flush signs the index
bytes into meta, the writer replaces index before meta, and
:func:`load_store_state` retries digest mismatches — so a reader either
sees a fully consistent generation or raises ``StoreCorruptionError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.serve.cache import HotChunkCache
from repro.store import ArrayStore, StoreSnapshot, load_store_state
from repro.store.format import StoreCorruptionError, StoreFormatError

BOUND = 1e-3


@pytest.fixture()
def store_dir(tmp_path):
    field = generate_gaussian_field((64, 48), correlation_range=9.0, seed=21)
    store = ArrayStore.create(
        tmp_path / "s", chunk_shape=16, codec="sz", error_bound=BOUND
    )
    store.write(field)
    store.append(generate_gaussian_field((9, 48), correlation_range=9.0, seed=22))
    return tmp_path / "s"


def _freeze(path):
    with open(path / "meta.json", "rb") as handle:
        meta = handle.read()
    with open(path / "index.bin", "rb") as handle:
        index = handle.read()
    return meta, index


class TestTornStates:
    def test_stale_meta_with_new_index_detected(self, store_dir):
        """The exact shape of the original bug: index replaced, meta not
        yet — digest mismatch, never a silently wrong shape."""

        old_meta, _ = _freeze(store_dir)
        store = ArrayStore.open(str(store_dir))
        store.append(np.zeros((7, 48)))
        with open(store_dir / "meta.json", "wb") as handle:
            handle.write(old_meta)
        with pytest.raises(StoreCorruptionError):
            load_store_state(str(store_dir), retries=2, retry_wait_s=0.001)
        with pytest.raises(StoreCorruptionError):
            ArrayStore.open(str(store_dir))  # same protection at open()

    def test_new_meta_with_stale_index_detected(self, store_dir):
        _, old_index = _freeze(store_dir)
        store = ArrayStore.open(str(store_dir))
        store.append(np.zeros((7, 48)))
        with open(store_dir / "index.bin", "wb") as handle:
            handle.write(old_index)
        with pytest.raises(StoreCorruptionError):
            StoreSnapshot.open(str(store_dir), retries=2, retry_wait_s=0.001)

    def test_torn_state_heals_within_retry_budget(self, store_dir):
        """A mismatch that a concurrent writer resolves mid-retry is
        invisible to the caller."""

        good_meta, _ = _freeze(store_dir)
        old_meta = json.loads(good_meta)
        old_meta["index_sha1"] = "0" * 40
        with open(store_dir / "meta.json", "w") as handle:
            json.dump(old_meta, handle)

        def heal() -> None:
            # Replace meta.json atomically, as a store flush does: a plain
            # truncate-and-write lets the reader see an empty file, which is
            # corruption, not a torn state.
            time.sleep(0.05)
            with open(store_dir / "meta.json.tmp", "wb") as handle:
                handle.write(good_meta)
            os.replace(store_dir / "meta.json.tmp", store_dir / "meta.json")

        healer = threading.Thread(target=heal)
        healer.start()
        try:
            meta, index = load_store_state(
                str(store_dir), retries=40, retry_wait_s=0.01
            )
        finally:
            healer.join()
        assert meta["index_sha1"] == hashlib.sha1(
            _freeze(store_dir)[1]
        ).hexdigest()
        assert len(index) > 0

    def test_corrupt_index_with_matching_digest_raises_immediately(
        self, store_dir
    ):
        """A digest that *matches* garbage bytes is real corruption, not
        a race — no retry loop, the error carries the real cause."""

        junk = b"RPST" + os.urandom(60)
        with open(store_dir / "index.bin", "wb") as handle:
            handle.write(junk)
        meta = json.loads(_freeze(store_dir)[0])
        meta["index_sha1"] = hashlib.sha1(junk).hexdigest()
        with open(store_dir / "meta.json", "w") as handle:
            json.dump(meta, handle)
        started = time.monotonic()
        with pytest.raises((StoreCorruptionError, StoreFormatError)):
            load_store_state(str(store_dir), retries=6, retry_wait_s=0.05)
        assert time.monotonic() - started < 0.25, "corruption was retried"


class TestFlushDiscipline:
    def test_every_flush_signs_the_index(self, store_dir):
        meta_bytes, index_bytes = _freeze(store_dir)
        meta = json.loads(meta_bytes)
        assert meta["index_sha1"] == hashlib.sha1(index_bytes).hexdigest()

    def test_generation_strictly_increases(self, tmp_path):
        store = ArrayStore.create(
            tmp_path / "g", chunk_shape=16, codec="sz", error_bound=BOUND
        )
        seen = [store.generation]
        store.write(np.ones((20, 20)))
        seen.append(store.generation)
        store.append(np.ones((5, 20)))
        seen.append(store.generation)
        store.compact()
        seen.append(store.generation)
        assert seen == sorted(set(seen)), f"generation not monotonic: {seen}"
        assert ArrayStore.open(str(tmp_path / "g")).generation == seen[-1]

    def test_legacy_store_without_digest_still_opens(self, store_dir):
        """Pre-PR6 stores have no ``index_sha1`` — structural checks
        only, no hard failure."""

        meta = json.loads(_freeze(store_dir)[0])
        del meta["index_sha1"]
        meta.pop("generation", None)
        with open(store_dir / "meta.json", "w") as handle:
            json.dump(meta, handle)
        store = ArrayStore.open(str(store_dir))
        assert store.read().shape == (73, 48)


class TestSnapshotReads:
    def test_snapshot_read_matches_store_read(self, store_dir):
        store = ArrayStore.open(str(store_dir))
        snapshot = StoreSnapshot.open(str(store_dir))
        for region in [None, (slice(3, 41), slice(7, 30)), (40,)]:
            np.testing.assert_array_equal(
                snapshot.read(region)[0], store.read(region)
            )

    def test_snapshot_read_matches_store_read_with_halo(self, tmp_path):
        field = generate_gaussian_field(
            (64, 64), correlation_range=9.0, seed=23
        )
        store = ArrayStore.create(
            tmp_path / "h",
            chunk_shape=16,
            codec="sz",
            error_bound=BOUND,
            halo=True,
        )
        store.write(field)
        snapshot = StoreSnapshot.open(str(tmp_path / "h"))
        region = (slice(18, 30), slice(18, 30))  # inside a halo chunk
        np.testing.assert_array_equal(
            snapshot.read(region)[0], store.read(region)
        )

    def test_read_report_counts_cache_traffic(self, store_dir):
        snapshot = StoreSnapshot.open(str(store_dir))
        cache = HotChunkCache(max_nbytes=64 * 1024 * 1024)
        _, cold = snapshot.read(chunk_cache=cache)
        assert cold.chunks_decoded == snapshot.n_chunks
        assert cold.cache_hits == 0
        _, warm = snapshot.read(chunk_cache=cache)
        assert warm.chunks_decoded == 0
        assert warm.cache_hits == snapshot.n_chunks
        # Without a cache the report never claims hits.
        _, plain = snapshot.read()
        assert plain.cache_hits == 0

    def test_partly_warm_halo_read_matches_a_plain_read(self, tmp_path):
        # Cached anchors (read-only arrays) lend their faces to halo
        # chunks that still decode, and hits skip the decode entirely.
        field = generate_gaussian_field((64, 64), correlation_range=9.0, seed=29)
        store = ArrayStore.create(
            tmp_path / "h", chunk_shape=16, codec="sz", error_bound=BOUND, halo=True
        )
        store.write(field)
        snapshot = StoreSnapshot.open(str(tmp_path / "h"))
        cache = HotChunkCache(max_nbytes=64 * 1024 * 1024)
        region = (slice(18, 30), slice(34, 46))  # inside halo chunk (1, 2)
        _, first = snapshot.read(region, chunk_cache=cache)
        assert (first.chunks_decoded, first.cache_hits) == (3, 0)
        values, report = snapshot.read(chunk_cache=cache)
        assert report.cache_hits == first.chunks_decoded
        assert report.chunks_decoded == snapshot.n_chunks - report.cache_hits
        np.testing.assert_array_equal(values, snapshot.read()[0])

    def test_snapshot_is_immutable_under_append(self, store_dir):
        snapshot = StoreSnapshot.open(str(store_dir))
        before, _ = snapshot.read()
        ArrayStore.open(str(store_dir)).append(np.zeros((6, 48)))
        after, _ = snapshot.read()
        np.testing.assert_array_equal(after, before)
