"""Compaction: reclaim orphaned payload bytes without moving the data.

Unaligned appends rewrite trailing chunks and orphan their old payloads;
:meth:`ArrayStore.compact` copies exactly the live ranges into a fresh
``chunks.bin`` and rebuilds the index.  These tests pin the observable
contract — zero orphaned bytes, bit-identical reads, valid halo anchors,
appendability — plus the exact post-compaction index bytes of a
deterministic build (golden file), so an accidental change to range
ordering or dedup shows up as a byte diff, not a silent relayout.
"""

from __future__ import annotations

import os

import numpy as np

from repro.datasets.gaussian import generate_gaussian_field
from repro.store import ArrayStore

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "index_golden_compacted.bin"
)

BOUND = 1e-3


def _churned_store(path, *, halo=False) -> ArrayStore:
    """Deterministic build with unaligned appends → guaranteed orphans."""

    field = generate_gaussian_field((96, 64), correlation_range=10.0, seed=11)
    store = ArrayStore.create(
        path, chunk_shape=32, codec="sz", error_bound=BOUND, halo=halo
    )
    store.write(np.ascontiguousarray(field[:40]))
    store.append(np.ascontiguousarray(field[40:57]))
    store.append(np.ascontiguousarray(field[57:96]))
    return store


class TestCompact:
    def test_reclaims_all_orphaned_bytes(self, tmp_path):
        store = _churned_store(tmp_path / "s")
        assert store.orphaned_nbytes > 0, "churn fixture produced no orphans"
        before = store.read()
        report = store.compact()
        assert report["reclaimed_nbytes"] > 0
        assert store.orphaned_nbytes == 0
        assert store.data_file_nbytes == store.live_payload_nbytes
        assert report["data_file_nbytes"] == store.data_file_nbytes
        np.testing.assert_array_equal(store.read(), before)

    def test_reopen_after_compact(self, tmp_path):
        store = _churned_store(tmp_path / "s")
        before = store.read()
        store.compact()
        reopened = ArrayStore.open(str(tmp_path / "s"))
        assert reopened.orphaned_nbytes == 0
        np.testing.assert_array_equal(reopened.read(), before)

    def test_compact_is_idempotent(self, tmp_path):
        store = _churned_store(tmp_path / "s")
        store.compact()
        report = store.compact()
        assert report["reclaimed_nbytes"] == 0
        assert store.orphaned_nbytes == 0

    def test_append_after_compact(self, tmp_path):
        field = generate_gaussian_field(
            (96, 64), correlation_range=10.0, seed=11
        )
        store = _churned_store(tmp_path / "s")
        store.compact()
        extra = generate_gaussian_field(
            (13, 64), correlation_range=10.0, seed=12
        )
        store.append(extra)
        got = store.read()
        assert got.shape == (109, 64)
        assert np.abs(got[:96] - field).max() <= BOUND * (1 + 1e-9)
        assert np.abs(got[96:] - extra).max() <= BOUND * (1 + 1e-9)

    def test_halo_anchors_survive_compaction(self, tmp_path):
        store = _churned_store(tmp_path / "h", halo=True)
        before = store.read()
        store.compact()
        # A full read resolves every halo chunk's anchors through the read
        # plan, which rejects an anchor that is itself a halo chunk.
        np.testing.assert_array_equal(store.read(), before)

    def test_empty_store_compact_is_a_noop(self, tmp_path):
        store = ArrayStore.create(
            tmp_path / "e", chunk_shape=32, codec="sz", error_bound=BOUND
        )
        report = store.compact()
        assert report == {
            "reclaimed_nbytes": 0,
            "data_file_nbytes": 0,
            "n_ranges": 0,
        }

    def test_generation_advances_on_compact(self, tmp_path):
        store = _churned_store(tmp_path / "s")
        generation = store.generation
        store.compact()
        assert store.generation == generation + 1


class TestGoldenCompactedIndex:
    """Byte-level pin of the post-compaction index for the deterministic
    churn build above.  Regenerate GOLDEN_PATH ONLY alongside a deliberate
    layout change (see tests/store/test_format.py for the policy)."""

    def test_compacted_index_bytes_match_golden(self, tmp_path):
        store = _churned_store(tmp_path / "s")
        store.compact()
        with open(os.path.join(store.path, "index.bin"), "rb") as handle:
            produced = handle.read()
        with open(GOLDEN_PATH, "rb") as handle:
            golden = handle.read()
        assert produced == golden, (
            "compacted index layout drifted from the pinned golden bytes"
        )

    def test_golden_offsets_are_dense_and_first_reference_ordered(self):
        from repro.store.format import unpack_index

        with open(GOLDEN_PATH, "rb") as handle:
            records = unpack_index(handle.read())
        assert records, "golden index is empty"
        seen = {}
        cursor = 0
        for record in records:
            key = (record.offset, record.length)
            if record.offset in seen:
                assert seen[record.offset] == record.length
                continue
            assert record.offset == cursor, "gap or reordering in layout"
            seen[record.offset] = record.length
            cursor += record.length


if __name__ == "__main__":  # pragma: no cover — golden regeneration
    import sys
    import tempfile

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python test_compact.py --regenerate")
    with tempfile.TemporaryDirectory() as scratch:
        store = _churned_store(os.path.join(scratch, "s"))
        store.compact()
        with open(os.path.join(store.path, "index.bin"), "rb") as handle:
            blob = handle.read()
    with open(GOLDEN_PATH, "wb") as handle:
        handle.write(blob)
    print(f"wrote {len(blob)} bytes to {GOLDEN_PATH}")
