"""Routing, round-trip and caching behaviour of the array server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from repro.serve.client import ServeError, StoreClient
from repro.store import ArrayStore
from repro.store.snapshot import StoreSnapshot

from tests.serve.conftest import TOL, build_store
from tests.store.test_array_store import RETIRED_SPEC, retire_policy


@pytest.fixture(scope="module")
def client(server):
    with StoreClient(server.url) as c:
        yield c


class TestRouting:
    def test_healthz(self, client):
        assert client.healthz()

    def test_ls_lists_store_directories_only(self, serve_root, client, field_2d):
        build_store(serve_root / "ls-a", field_2d)
        (serve_root / "not-a-store").mkdir(exist_ok=True)
        names = client.ls()
        assert "ls-a" in names
        assert "not-a-store" not in names

    def test_unknown_dataset_404(self, client):
        with pytest.raises(ServeError) as err:
            client.get("nope")
        assert err.value.status == 404

    def test_unknown_route_404(self, client):
        status, _ = client._request("GET", "/frobnicate")
        assert status == 404

    def test_wrong_method_405(self, serve_root, client, field_2d):
        build_store(serve_root / "m405", field_2d)
        status, _ = client._request("POST", "/ds/m405")
        assert status == 405

    def test_invalid_dataset_name_400(self, client):
        status, _ = client._request("GET", "/ds/..")
        assert status == 400  # ".." fails the name regex before any I/O
        status, _ = client._request("GET", "/ds/a%2Fb")
        assert status == 404  # decodes to an extra path segment, no route

    def test_stats_shape(self, client):
        stats = client.stats()
        assert {"requests_total", "gate", "hot_chunk_cache"} <= set(stats)
        assert stats["gate"]["max_concurrency"] == 8

    def test_info_is_the_store_summary(self, serve_root, client, field_2d):
        store = build_store(serve_root / "info-ds", field_2d)
        info = client.info("info-ds")
        assert info["name"] == "info-ds"
        assert info["shape"] == list(field_2d.shape)
        # Server-wide counters live in /stats only.
        assert "hot_chunk_cache" not in info
        assert {"hits", "misses"} <= set(client.stats()["hot_chunk_cache"])
        assert info["compression_ratio"] == store.compression_ratio


class TestRoundTrip:
    """Acceptance: HTTP reads are bit-identical to ArrayStore.read for
    every codec, with and without halo anchors, in both decode modes."""

    REGIONS_2D = [None, (slice(10, 70), slice(5, 60)), (slice(33, 34),)]
    REGIONS_3D = [None, (slice(4, 28), slice(0, 16), slice(9, 30))]

    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    @pytest.mark.parametrize("decode", ["server", "client"])
    def test_2d_matches_local_read(
        self, serve_root, client, field_2d, codec, decode
    ):
        name = f"rt2-{codec}"
        if not (serve_root / name).exists():
            build_store(serve_root / name, field_2d, codec=codec)
        store = ArrayStore.open(serve_root / name)
        for region in self.REGIONS_2D:
            want = store.read(region)
            got = client.get(name, region, decode=decode)
            np.testing.assert_array_equal(got, want)
            assert np.abs(got - field_2d[_as_index(region)]).max() <= TOL

    @pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
    @pytest.mark.parametrize("decode", ["server", "client"])
    def test_3d_halo_matches_local_read(
        self, serve_root, client, volume_3d, codec, decode
    ):
        name = f"rt3h-{codec}"
        if not (serve_root / name).exists():
            build_store(serve_root / name, volume_3d, chunk=16, codec=codec, halo=True)
        store = ArrayStore.open(serve_root / name)
        assert store.halo
        for region in self.REGIONS_3D:
            want = store.read(region)
            got = client.get(name, region, decode=decode)
            np.testing.assert_array_equal(got, want)
            assert np.abs(got - volume_3d[_as_index(region)]).max() <= TOL

    def test_client_decode_of_halo_chunk_pulls_anchors(
        self, serve_root, client, volume_3d
    ):
        """A region inside one odd-parity chunk must ship its anchor
        neighbours too — otherwise the client could not decode at all."""

        name = "rt3h-sz"
        if not (serve_root / name).exists():
            build_store(serve_root / name, volume_3d, chunk=16, codec="sz", halo=True)
        store = ArrayStore.open(serve_root / name)
        # Chunk grid (1,0,0) is odd parity → halo-flagged in this store.
        region = (slice(18, 30), slice(2, 14), slice(2, 14))
        want = store.read(region)
        got = client.get(name, region, decode="client")
        np.testing.assert_array_equal(got, want)
        included = int(client.last_headers["x-chunks-included"])
        assert included > 1  # the halo chunk plus its anchors


class TestHotChunkCache:
    def test_repeated_read_hits_cache(self, serve_root, client, field_2d):
        build_store(serve_root / "hot", field_2d)
        client.get("hot", (slice(0, 32), slice(0, 32)))
        client.get("hot", (slice(0, 32), slice(0, 32)))
        assert int(client.last_headers["x-chunks-decoded"]) == 0
        assert int(client.last_headers["x-cache-hits"]) == 1

    def test_counters_monotonic_in_stats(self, serve_root, client, field_2d):
        # Fresh content, so the first read misses every chunk.
        store = build_store(serve_root / "hot2", np.asarray(field_2d) - 1.0)
        before = client.stats()["hot_chunk_cache"]
        client.get("hot2")
        client.get("hot2")
        after = client.stats()["hot_chunk_cache"]
        assert after["misses"] - before["misses"] == store.n_chunks
        assert after["hits"] - before["hits"] == store.n_chunks

    def test_region_reads_count_in_the_process_registry(
        self, serve_root, client, volume_3d
    ):
        # Fresh content: the server-wide hot-chunk cache must not serve it.
        build_store(serve_root / "counted", volume_3d * 0.5 + 3.0, chunk=16)
        before = REGISTRY.snapshot()
        client.get("counted", (slice(0, 8), slice(0, 20), slice(0, 8)))
        after = REGISTRY.snapshot()
        decoded = int(client.last_headers["x-chunks-decoded"])
        assert decoded == 2
        assert (
            after["repro_store_chunks_decoded_total"]
            - before.get("repro_store_chunks_decoded_total", 0)
        ) == decoded
        assert after["repro_store_reads_total"] > before.get(
            "repro_store_reads_total", 0
        )


class TestChunkEndpoint:
    def test_payload_and_etag_round_trip(self, serve_root, client, field_2d):
        build_store(serve_root / "etag", field_2d)
        payload, etag = client.chunk("etag", 0)
        snapshot = StoreSnapshot.open(serve_root / "etag")
        record = snapshot.index[0]
        assert len(payload) == record.length
        assert etag == f'"{snapshot.payload_sha1(0)}"'
        cached, same_etag = client.chunk("etag", 0, etag=etag)
        assert cached is None  # 304
        assert same_etag == etag

    def test_out_of_range_chunk_404(self, serve_root, client, field_2d):
        build_store(serve_root / "etag2", field_2d)
        status, _ = client._request("GET", "/ds/etag2/chunk/9999")
        assert status == 404


class TestMutation:
    def test_put_get_round_trip(self, client, field_2d):
        summary = client.put("ingest", field_2d, codec="zfp", chunk=32)
        assert summary["shape"] == list(field_2d.shape)
        got = client.get("ingest")
        assert np.abs(got - field_2d).max() <= TOL

    def test_append_grows_and_preserves(self, client, field_2d):
        client.put("growing", field_2d[:40], chunk=32)
        before = client.get("growing")
        summary = client.append("growing", field_2d[40:64])
        assert summary["shape"][0] == 64
        after = client.get("growing")
        np.testing.assert_array_equal(after[:40], before)
        assert np.abs(after - field_2d[:64]).max() <= TOL

    def test_append_to_missing_dataset_404(self, client, field_2d):
        with pytest.raises(ServeError) as err:
            client.append("never-created", field_2d[:8])
        assert err.value.status == 404

    @pytest.mark.parametrize("codec", ["nope", "best:sz+", "best:sz+sz", "adaptive"])
    def test_put_with_bad_policy_400(self, client, field_2d, codec):
        with pytest.raises(ServeError) as err:
            client.put("bad-policy", field_2d, codec=codec)
        assert err.value.status == 400
        assert "codec policy spec" in str(err.value)

    def test_store_with_retired_policy_reads_but_refuses_append(
        self, serve_root, client, field_2d
    ):
        build_store(serve_root / "retired", field_2d[:40])
        retire_policy(serve_root / "retired")
        assert client.info("retired")["codec_policy"] == RETIRED_SPEC
        got = client.get("retired")
        assert np.abs(got - field_2d[:40]).max() <= TOL
        with pytest.raises(ServeError) as err:
            client.append("retired", field_2d[40:64])
        assert err.value.status == 400
        assert RETIRED_SPEC in str(err.value)
        np.testing.assert_array_equal(client.get("retired"), got)

    def test_compact_after_churn(self, client, field_2d):
        client.put("churny", field_2d[:40], chunk=32)
        client.append("churny", field_2d[40:52])
        client.append("churny", field_2d[52:64])
        before = client.get("churny")
        assert client.info("churny")["orphaned_nbytes"] > 0
        report = client.compact("churny")
        assert report["orphaned_nbytes"] == 0
        assert report["reclaimed_nbytes"] > 0
        np.testing.assert_array_equal(client.get("churny"), before)


def _as_index(region):
    return tuple(region) if region is not None else ()
