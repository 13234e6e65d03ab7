"""Tests for the chunked compressed array store (repro.store.array_store)."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import re

import numpy as np
import pytest

from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.obs.trace import Tracer, install_tracer
from repro.store import ArrayStore, StoreCorruptionError, StoreFormatError
from repro.store.array_store import DATA_NAME, INDEX_NAME, META_NAME
from repro.store.snapshot import StoreSnapshot

BOUND = 1e-3
TOL = BOUND * (1.0 + 1e-9)


@pytest.fixture(scope="module")
def field_2d():
    return generate_gaussian_field((96, 80), correlation_range=12.0, seed=5)


@pytest.fixture(scope="module")
def volume_3d():
    return generate_miranda_like_volume((40, 40, 40), seed=6)


@pytest.fixture(scope="module")
def miranda_64():
    return generate_miranda_like_volume((64, 64, 64), seed=0)


def make_store(path, array, *, chunk=32, codec="sz", **kwargs):
    store = ArrayStore.create(path, chunk_shape=chunk, codec=codec, **kwargs)
    store.write(array)
    return store


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    def test_2d_full_round_trip(self, tmp_path, field_2d, codec):
        store = make_store(tmp_path / "s", field_2d, codec=codec)
        reopened = ArrayStore.open(tmp_path / "s")
        values = reopened.read()
        assert values.shape == field_2d.shape
        assert np.abs(values - field_2d).max() <= TOL

    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    def test_3d_full_round_trip(self, tmp_path, volume_3d, codec):
        store = make_store(tmp_path / "s", volume_3d, chunk=16, codec=codec)
        values = ArrayStore.open(tmp_path / "s").read()
        assert values.shape == volume_3d.shape
        assert np.abs(values - volume_3d).max() <= TOL

    def test_partial_reads_match_random_regions(self, tmp_path, field_2d, volume_3d):
        """Property test: random step-1 regions agree with the full read."""

        rng = np.random.default_rng(99)
        for name, array, chunk in (("f2", field_2d, 32), ("v3", volume_3d, 16)):
            store = make_store(tmp_path / name, array, chunk=chunk)
            full = store.read()
            for _ in range(12):
                region = []
                for length in array.shape:
                    lo = int(rng.integers(0, length - 1))
                    hi = int(rng.integers(lo + 1, length + 1))
                    region.append(slice(lo, hi))
                region = tuple(region)
                got = store.read(region)
                np.testing.assert_array_equal(got, full[region])

    def test_int_indexing_drops_axis(self, tmp_path, volume_3d):
        store = make_store(tmp_path / "s", volume_3d, chunk=16)
        full = store.read()
        plane = store.read((3,))
        assert plane.shape == volume_3d.shape[1:]
        np.testing.assert_array_equal(plane, full[3])
        line = store.read((3, slice(2, 10), 7))
        np.testing.assert_array_equal(line, full[3, 2:10, 7])

    def test_negative_and_open_slices(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        full = store.read()
        np.testing.assert_array_equal(
            store.read((slice(None), slice(-16, None))), full[:, -16:]
        )

    def test_write_replaces_content(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        other = np.ascontiguousarray(field_2d[::-1, :])
        store.write(other)
        values = ArrayStore.open(tmp_path / "s").read()
        assert np.abs(values - other).max() <= TOL


class TestPartialDecoding:
    def test_only_intersecting_chunks_decoded(self, tmp_path, volume_3d):
        store = make_store(tmp_path / "s", volume_3d, chunk=16)
        assert store.n_chunks == 27  # ceil(40/16) = 3 chunks per axis
        store.read((slice(0, 10), slice(0, 10), slice(0, 10)))
        assert store.last_read.chunks_intersecting == 1
        assert store.last_read.chunks_decoded == 1
        store.read((slice(0, 20), slice(0, 10), slice(0, 10)))
        assert store.last_read.chunks_intersecting == 2
        store.read()
        assert store.last_read.chunks_intersecting == store.n_chunks

    def test_identical_chunks_decode_once(self, tmp_path):
        array = np.zeros((64, 64))
        store = make_store(tmp_path / "s", array, chunk=16)
        assert store.n_chunks == 16
        store.read()
        # All 16 chunks share one deduplicated payload.
        assert store.last_read.chunks_decoded == 1
        assert store.stored_nbytes < store.compressed_nbytes


class TestDedupAndCache:
    def test_constant_array_dedups_payloads(self, tmp_path):
        array = np.full((64, 64), 3.25)
        store = make_store(tmp_path / "s", array, chunk=16)
        meta = json.loads((tmp_path / "s" / META_NAME).read_text())
        digests = {c["payload_sha1"] for c in meta["chunks"]}
        assert len(digests) == 1
        data_size = os.path.getsize(tmp_path / "s" / DATA_NAME)
        assert data_size == store.stored_nbytes

    def test_chunk_cache_hits_across_writes(self, tmp_path, field_2d):
        """With no memo a second write recomputes every chunk, and gets
        exactly the bytes a memo hit would have returned."""

        first = make_store(tmp_path / "a", field_2d)
        second = make_store(tmp_path / "b", field_2d)
        assert (tmp_path / "a" / DATA_NAME).read_bytes() == (
            tmp_path / "b" / DATA_NAME
        ).read_bytes()
        assert (tmp_path / "a" / INDEX_NAME).read_bytes() == (
            tmp_path / "b" / INDEX_NAME
        ).read_bytes()
        assert first.chunk_records() == second.chunk_records()

    def test_identical_chunks_resolve_in_call(self, tmp_path):
        """Identical chunks are each encoded, then resolve to one stored
        payload range when the write lays out its bytes."""

        tracer = Tracer()
        with install_tracer(tracer):
            store = make_store(tmp_path / "c", np.full((64, 64), 3.25), chunk=16)
        from repro.store.format import unpack_index

        names = [record.name for record in tracer.spans()]
        assert names.count("store.encode_chunk") == store.n_chunks == 16
        records = unpack_index((tmp_path / "c" / INDEX_NAME).read_bytes())
        assert len(records) == 16
        assert len({(r.offset, r.length) for r in records}) == 1
        assert os.path.getsize(tmp_path / "c" / DATA_NAME) == records[0].length

    def test_different_policies_do_not_share_cache(self, tmp_path, field_2d):
        """The same array under two policies: each store's chunks come from
        its own policy's candidates, never from the other store's."""

        a = make_store(tmp_path / "a", field_2d, chunk=64, codec="sz")
        b = make_store(tmp_path / "b", field_2d, chunk=64, codec="best:sz+zfp")
        assert {r.codec for r in a.chunk_records()} == {"sz"}
        assert {r.codec for r in b.chunk_records()} <= {"sz", "zfp"}
        # "best" keeps the smaller candidate per chunk, so it never loses to sz.
        assert b.stored_nbytes <= a.stored_nbytes
        for path in ("a", "b"):
            values = ArrayStore.open(tmp_path / path).read()
            assert np.abs(values - field_2d).max() <= TOL

    def test_cache_disabled(self):
        """The store keeps no compression memo: nothing to enable or opt out of."""

        import repro
        import repro.store

        for module in (repro, repro.store):
            assert not hasattr(module, "default_store_cache")
        for method in (ArrayStore.write, ArrayStore.append):
            assert "cache" not in inspect.signature(method).parameters


class TestParallel:
    def test_parallel_workers_match_serial(self, tmp_path, volume_3d):
        from repro.utils.parallel import ParallelConfig

        serial = make_store(tmp_path / "serial", volume_3d, chunk=16)
        parallel = ArrayStore.create(tmp_path / "parallel", chunk_shape=16)
        parallel.write(
            volume_3d,
            parallel=ParallelConfig(workers=2),
        )
        assert (tmp_path / "serial" / DATA_NAME).read_bytes() == (
            tmp_path / "parallel" / DATA_NAME
        ).read_bytes()
        assert [r.codec for r in serial.chunk_records()] == [
            r.codec for r in parallel.chunk_records()
        ]


class TestAppend:
    def test_append_aligned(self, tmp_path, volume_3d):
        store = make_store(tmp_path / "s", volume_3d[:32], chunk=16)
        store.append(volume_3d[32:])
        values = ArrayStore.open(tmp_path / "s").read()
        assert values.shape == volume_3d.shape
        assert np.abs(values - volume_3d).max() <= TOL
        # Aligned appends rewrite nothing, so no payload bytes are orphaned.
        assert store.orphaned_nbytes == 0
        assert store.info()["orphaned_nbytes"] == 0

    def test_append_unaligned_rewrites_partial_chunks(self, tmp_path, volume_3d):
        store = make_store(tmp_path / "s", volume_3d[:24], chunk=16)
        live_before = store.live_payload_nbytes
        assert store.orphaned_nbytes == 0
        store.append(volume_3d[24:])
        values = ArrayStore.open(tmp_path / "s").read()
        assert values.shape == volume_3d.shape
        assert np.abs(values - volume_3d).max() <= TOL
        # The rewritten trailing-slab payloads stay behind as dead bytes;
        # info() surfaces them so compaction need is visible.
        info = store.info()
        assert info["orphaned_nbytes"] == store.orphaned_nbytes > 0
        assert (
            info["data_file_nbytes"]
            == store.live_payload_nbytes + store.orphaned_nbytes
        )
        assert store.orphaned_nbytes <= live_before

    def test_append_to_empty_store_writes(self, tmp_path, field_2d):
        store = ArrayStore.create(tmp_path / "s", chunk_shape=32)
        store.append(field_2d)
        assert store.shape == field_2d.shape

    def test_repeated_small_appends(self, tmp_path, field_2d):
        store = ArrayStore.create(tmp_path / "s", chunk_shape=32)
        for start in range(0, field_2d.shape[0], 24):
            store.append(field_2d[start : start + 24])
        values = ArrayStore.open(tmp_path / "s").read()
        assert values.shape == field_2d.shape
        assert np.abs(values - field_2d).max() <= TOL

    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    def test_unaligned_appends_never_drift_past_bound(
        self, tmp_path, volume_3d, codec
    ):
        """Rewritten chunks must not add a second lossy pass.

        The bound is relative to the data as first written: the decoded
        tail merged with new rows is re-compressed, and codec blocks
        spanning the seam cannot reproduce the old rows exactly — those
        chunks must fall back to the exact raw codec instead of letting
        the error reach 2x the bound (and Nx over repeated appends).
        """

        store = ArrayStore.create(tmp_path / codec, chunk_shape=16, codec=codec)
        store.write(volume_3d[:24])
        store.append(volume_3d[24:34])
        store.append(volume_3d[34:])
        values = ArrayStore.open(tmp_path / codec).read()
        assert values.shape == volume_3d.shape
        assert np.abs(values - volume_3d).max() <= TOL

    def test_rewritten_chunks_preserve_stored_rows_exactly(self, tmp_path, volume_3d):
        store = ArrayStore.create(tmp_path / "s", chunk_shape=16, codec="zfp")
        store.write(volume_3d[:24])
        before = store.read((slice(16, 24),))
        store.append(volume_3d[24:])
        after = store.read((slice(16, 24),))
        # The once-lossy rows of the rewritten slab are bit-identical.
        np.testing.assert_array_equal(before, after)

    def test_append_shape_mismatch_rejected(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        with pytest.raises(ValueError, match="append"):
            store.append(np.zeros((4, field_2d.shape[1] + 1)))


class TestPolicies:
    def test_best_policy_not_larger_than_any_fixed(self, tmp_path, field_2d):
        best_store = make_store(tmp_path / "best", field_2d, codec="best")
        for codec in ("sz", "zfp", "mgard"):
            fixed_store = make_store(tmp_path / codec, field_2d, codec=codec)
            assert best_store.compressed_nbytes <= fixed_store.compressed_nbytes

    def test_chunk_stats_recorded(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        record = store.chunk_records()[0]
        window = field_2d[: record.shape[0], : record.shape[1]]
        assert record.stats["mean"] == pytest.approx(float(window.mean()))
        assert np.isfinite(record.stats["variogram_range"])
        assert record.stats["max_abs_error"] <= TOL

    @pytest.mark.parametrize("halo", [False, True], ids=["plain", "halo"])
    @pytest.mark.parametrize("codec", ["sz", "best:sz+zfp", "best"])
    def test_chunk_records_report_exact_error_and_ratio(
        self, tmp_path, miranda_64, codec, halo
    ):
        store = ArrayStore.create(tmp_path / "s", chunk_shape=16, codec=codec, halo=halo)
        store.write(miranda_64)
        records = store.chunk_records()
        assert len(records) == 64
        for record, entry in zip(records, StoreSnapshot.open(store.path).index):
            region = tuple(slice(o, o + e) for o, e in zip(record.offset, record.shape))
            error = float(np.abs(store.read(region) - miranda_64[region]).max())
            assert record.stats["max_abs_error"] == error
            assert entry.length == record.nbytes
            assert record.compression_ratio == 8 * np.prod(record.shape) / entry.length

    def test_chunk_stats_can_be_disabled(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d, chunk_stats=False)
        stats = store.chunk_records()[0].stats
        assert "variogram_range" not in stats
        assert "max_abs_error" in stats

    def test_meta_is_strict_json_even_with_nan_stats(self, tmp_path):
        """Constant chunks give NaN variogram ranges; meta.json must stay
        valid for strict parsers (no bare NaN tokens)."""

        make_store(tmp_path / "s", np.zeros((64, 64)), chunk=32)
        text = (tmp_path / "s" / META_NAME).read_text()

        def reject(constant):
            raise AssertionError(f"non-standard JSON token {constant!r}")

        meta = json.loads(text, parse_constant=reject)
        assert meta["chunks"][0]["stats"]["variogram_range"] is None
        # And the sanitized values round-trip to NaN on the read side.
        reopened = ArrayStore.open(tmp_path / "s")
        assert np.isnan(reopened.chunk_records()[0].stats["variogram_range"])


class TestErrorPaths:
    def test_create_refuses_nonempty_dir(self, tmp_path):
        target = tmp_path / "s"
        target.mkdir()
        (target / "junk").write_text("x")
        with pytest.raises(StoreFormatError, match="not empty"):
            ArrayStore.create(target)
        ArrayStore.create(target, overwrite=True)  # explicit overwrite is fine

    def test_open_missing_meta(self, tmp_path):
        with pytest.raises(StoreFormatError, match="missing"):
            ArrayStore.open(tmp_path)

    def test_read_before_write_rejected(self, tmp_path):
        store = ArrayStore.create(tmp_path / "s")
        with pytest.raises(StoreFormatError, match="no data"):
            store.read()

    def test_corrupt_chunk_payload_detected(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        data_path = tmp_path / "s" / DATA_NAME
        blob = bytearray(data_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        data_path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            ArrayStore.open(tmp_path / "s").read()

    def test_truncated_chunk_file_detected(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        data_path = tmp_path / "s" / DATA_NAME
        data_path.write_bytes(data_path.read_bytes()[:-10])
        with pytest.raises(StoreCorruptionError, match="truncated"):
            ArrayStore.open(tmp_path / "s").read()

    def test_corrupt_index_detected(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        index_path = tmp_path / "s" / INDEX_NAME
        index_path.write_bytes(index_path.read_bytes()[:-4])
        with pytest.raises(StoreFormatError):
            ArrayStore.open(tmp_path / "s")

    def test_index_chunk_grid_mismatch_detected(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        meta_path = tmp_path / "s" / META_NAME
        meta = json.loads(meta_path.read_text())
        meta["shape"] = [s * 2 for s in meta["shape"]]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreCorruptionError, match="grid"):
            ArrayStore.open(tmp_path / "s")

    def test_bad_region_specs_rejected(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d)
        with pytest.raises(ValueError, match="step-1"):
            store.read((slice(0, 10, 2),))
        with pytest.raises(IndexError):
            store.read((field_2d.shape[0],))
        with pytest.raises(ValueError, match="axes"):
            store.read((slice(0, 1),) * 3)
        with pytest.raises(TypeError):
            store.read(("nope",))

    def test_non_finite_arrays_rejected(self, tmp_path):
        store = ArrayStore.create(tmp_path / "s")
        bad = np.zeros((8, 8))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            store.write(bad)

    def test_create_rejects_bad_policy_before_touching_the_path(self, tmp_path):
        with pytest.raises(ValueError, match="'best:sz\\+sz'"):
            ArrayStore.create(tmp_path / "s", codec="best:sz+sz")
        assert not (tmp_path / "s").exists()


RETIRED_SPEC = "adaptive:sz+zfp:n8:s0"


def retire_policy(path, spec=RETIRED_SPEC):
    """Rewrite a store's persisted policy to ``spec`` and give its chunk
    entries the per-chunk estimates older sampling-policy stores carried.
    ``load_store_state`` checks only ``index_sha1``, so the store opens."""

    meta_path = path / META_NAME
    meta = json.loads(meta_path.read_text())
    meta["codec"] = spec
    for entry in meta["chunks"]:
        entry["estimated_cr"] = 7.5
        entry["estimated_crs"] = {"sz": 7.5, "zfp": 6.0}
    meta_path.write_text(json.dumps(meta, indent=1))


class TestRetiredPolicySpec:
    """A store whose persisted spec ``parse_policy`` no longer accepts
    (such as the retired sampling ``adaptive`` policy) still opens and
    reads, since decoding never needs the policy; writing raises
    ``ValueError`` naming the spec and leaves the store as it was."""

    @pytest.fixture()
    def retired(self, tmp_path, volume_3d):
        make_store(tmp_path / "s", volume_3d[:24], chunk=16)
        expected = ArrayStore.open(tmp_path / "s").read()
        retire_policy(tmp_path / "s")
        return tmp_path / "s", expected

    def test_open_read_and_inspect(self, retired):
        path, expected = retired
        store = ArrayStore.open(path)
        assert store.codec_policy == RETIRED_SPEC
        np.testing.assert_array_equal(store.read(), expected)
        info = store.info()
        assert info["codec_policy"] == RETIRED_SPEC
        assert info["codec_histogram"] == {"sz": store.n_chunks}
        assert not any("estimate" in key for key in info)
        assert all(r.codec == "sz" for r in store.chunk_records())

    @pytest.mark.parametrize("method", ["write", "append"])
    def test_write_and_append_name_the_spec(self, retired, volume_3d, method):
        path, expected = retired
        files = (META_NAME, INDEX_NAME, DATA_NAME)
        before = {name: (path / name).read_bytes() for name in files}
        store = ArrayStore.open(path)
        with pytest.raises(ValueError, match=re.escape(repr(RETIRED_SPEC))):
            getattr(store, method)(volume_3d[24:])
        for name, payload in before.items():
            assert (path / name).read_bytes() == payload
        np.testing.assert_array_equal(store.read(), expected)


#: Codec settings as older stores persisted them in ``meta.json``.
LEGACY_OPTIONS = {"sz": {"predictors": ["lorenzo"], "code_radius": 64}}


def add_legacy_options(path):
    """Give a store the ``compressor_options`` key older stores carried."""

    meta_path = path / META_NAME
    meta = json.loads(meta_path.read_text())
    meta["compressor_options"] = LEGACY_OPTIONS
    meta_path.write_text(json.dumps(meta, indent=1))


class TestLegacyCompressorOptions:
    """Older stores persisted per-codec settings; readers ignore them,
    since every chunk's container records its own settings."""

    def test_store_reads_and_appends_like_a_fresh_store(self, tmp_path, volume_3d):
        fresh = make_store(tmp_path / "fresh", volume_3d[:24], chunk=16)
        make_store(tmp_path / "old", volume_3d[:24], chunk=16)
        add_legacy_options(tmp_path / "old")
        old = ArrayStore.open(tmp_path / "old")
        np.testing.assert_array_equal(old.read(), fresh.read())
        old.append(volume_3d[24:])
        fresh.append(volume_3d[24:])
        values = ArrayStore.open(tmp_path / "old").read()
        np.testing.assert_array_equal(values, fresh.read())
        assert np.abs(values - volume_3d).max() <= TOL
        assert "compressor_options" in json.loads((tmp_path / "old" / META_NAME).read_text())
        assert "compressor_options" not in json.loads(
            (tmp_path / "fresh" / META_NAME).read_text()
        )

    def test_chunks_written_with_settings_decode_without_them(
        self, tmp_path, volume_3d, monkeypatch
    ):
        from repro.compressors import tiles
        from repro.compressors.sz import SZCompressor

        settings = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in LEGACY_OPTIONS["sz"].items()
        }
        with monkeypatch.context() as patch:
            # How older stores wrote and read: the codec built with the settings.
            patch.setattr(
                tiles, "make_compressor", lambda name, bound: SZCompressor(bound, **settings)
            )
            make_store(tmp_path / "old", volume_3d, chunk=16)
            add_legacy_options(tmp_path / "old")
            with_settings = ArrayStore.open(tmp_path / "old").read()
        values = ArrayStore.open(tmp_path / "old").read()
        np.testing.assert_array_equal(values, with_settings)
        assert np.abs(values - volume_3d).max() <= TOL
        # The settings did change the payloads.
        make_store(tmp_path / "default", volume_3d, chunk=16)
        payloads = [(tmp_path / name / DATA_NAME).read_bytes() for name in ("old", "default")]
        assert payloads[0] != payloads[1]


class TestHaloStore:
    """Halo-aware chunking: odd-parity chunks borrow their even-parity
    anchor neighbours' reconstructed planes and entropy context."""

    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    def test_round_trip_and_bound_3d(self, tmp_path, volume_3d, codec):
        store = make_store(
            tmp_path / codec, volume_3d, chunk=16, codec=codec, halo=True
        )
        values = store.read()
        assert np.abs(values - volume_3d).max() <= TOL
        # Reopened stores decode through the persisted flags alone.
        values = ArrayStore.open(tmp_path / codec).read()
        assert np.abs(values - volume_3d).max() <= TOL

    def test_round_trip_2d(self, tmp_path, field_2d):
        store = make_store(tmp_path / "s", field_2d, chunk=32, halo=True)
        values = ArrayStore.open(tmp_path / "s").read()
        assert np.abs(values - field_2d).max() <= TOL

    def test_halo_lifts_compression_ratio(self, tmp_path, volume_3d):
        plain = make_store(tmp_path / "off", volume_3d, chunk=16, codec="sz")
        halo = make_store(
            tmp_path / "on", volume_3d, chunk=16, codec="sz", halo=True
        )
        assert halo.compression_ratio >= plain.compression_ratio
        assert halo.info()["halo_chunks"] > 0
        assert plain.info()["halo_chunks"] == 0

    def test_partial_read_decodes_bounded_neighbours(self, tmp_path, volume_3d):
        store = make_store(tmp_path / "s", volume_3d, chunk=16, halo=True)
        ndim = volume_3d.ndim
        # Region inside the odd-parity chunk at grid (1, 0, 0): the read
        # must decode that chunk plus at most one anchor per axis — not
        # the whole store.
        values = store.read((slice(20, 28), slice(4, 12), slice(4, 12)))
        assert np.abs(values - volume_3d[20:28, 4:12, 4:12]).max() <= TOL
        report = store.last_read
        assert report.chunks_intersecting == 1
        assert report.chunks_decoded <= 1 + ndim
        assert report.chunks_decoded < report.chunks_total

    def test_anchor_chunks_decode_standalone(self, tmp_path, volume_3d):
        store = make_store(tmp_path / "s", volume_3d, chunk=16, halo=True)
        values = store.read((slice(0, 8), slice(0, 8), slice(0, 8)))
        assert np.abs(values - volume_3d[:8, :8, :8]).max() <= TOL
        assert store.last_read.chunks_decoded == 1

    def test_index_flags_present_and_v1_for_plain(self, tmp_path, volume_3d):
        from repro.store.format import parse_halo_flags, unpack_index

        halo_store = make_store(tmp_path / "on", volume_3d, chunk=16, halo=True)
        blob = (tmp_path / "on" / INDEX_NAME).read_bytes()
        records = unpack_index(blob)
        flagged = [r for r in records if r.flags]
        assert flagged
        for record in flagged:
            is_halo, axes_mask, ref_axis = parse_halo_flags(record.flags)
            assert is_halo and axes_mask and ref_axis is not None
        plain_store = make_store(tmp_path / "off", volume_3d, chunk=16)
        blob = (tmp_path / "off" / INDEX_NAME).read_bytes()
        import struct

        version = struct.unpack_from("<H", blob, 4)[0]
        assert version == 1

    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    def test_append_halo_store(self, tmp_path, volume_3d, codec):
        store = ArrayStore.create(
            tmp_path / codec, chunk_shape=16, codec=codec, halo=True
        )
        store.write(volume_3d[:24])
        before = store.read((slice(0, 24),)).copy()
        store.append(volume_3d[24:34])
        store.append(volume_3d[34:])
        reopened = ArrayStore.open(tmp_path / codec)
        values = reopened.read()
        assert values.shape == volume_3d.shape
        assert np.abs(values - volume_3d).max() <= TOL
        # First-written rows above the rewritten slab stay bit-identical.
        np.testing.assert_array_equal(
            reopened.read((slice(0, 16),)), before[:16]
        )
        assert store.orphaned_nbytes > 0

    def test_parallel_workers_match_serial(self, tmp_path, volume_3d):
        from repro.utils.parallel import ParallelConfig

        serial = make_store(tmp_path / "serial", volume_3d, chunk=16, halo=True)
        parallel = ArrayStore.create(tmp_path / "par", chunk_shape=16, halo=True)
        parallel.write(
            volume_3d, parallel=ParallelConfig(workers=2)
        )
        a = (tmp_path / "serial" / DATA_NAME).read_bytes()
        b = (tmp_path / "par" / DATA_NAME).read_bytes()
        assert a == b

    def test_best_policy_with_halo(self, tmp_path, volume_3d):
        make_store(tmp_path / "s", volume_3d, chunk=16, codec="best", halo=True)
        values = ArrayStore.open(tmp_path / "s").read()
        assert np.abs(values - volume_3d).max() <= TOL

    def test_halo_reference_to_flagged_chunk_detected(self, tmp_path, volume_3d):
        from repro.store.format import IndexRecord, pack_index, unpack_index

        store = make_store(tmp_path / "s", volume_3d, chunk=16, halo=True)
        index_path = tmp_path / "s" / INDEX_NAME
        records = unpack_index(index_path.read_bytes())
        flagged = next(i for i, r in enumerate(records) if r.flags)
        anchor = next(i for i, r in enumerate(records) if not r.flags)
        # Corrupt an anchor into a halo chunk: reads through it must fail
        # loudly instead of cascading.
        bad = records[anchor]
        records[anchor] = IndexRecord(
            offset=bad.offset,
            length=bad.length,
            codec=bad.codec,
            checksum=bad.checksum,
            flags=records[flagged].flags,
        )
        blob = pack_index(records)
        index_path.write_bytes(blob)
        # Re-sign the tampered index so the open-time digest check passes
        # and the read-path anchor guard is what fires.
        meta_path = tmp_path / "s" / META_NAME
        meta = json.loads(meta_path.read_text())
        meta["index_sha1"] = hashlib.sha1(blob).hexdigest()
        meta_path.write_text(json.dumps(meta))
        reopened = ArrayStore.open(tmp_path / "s")
        with pytest.raises(StoreCorruptionError):
            reopened.read()
