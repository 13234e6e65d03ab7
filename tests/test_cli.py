"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.io import save_field, save_raw


@pytest.fixture()
def field_npy(tmp_path):
    field = generate_gaussian_field((64, 64), 12.0, seed=0)
    path = tmp_path / "field.npy"
    save_field(path, field)
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("compress", "stats", "experiment", "figure", "store"):
            assert command in parser.format_help()


class TestWorkerCounts:
    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "v.npy", "--volume", "--workers"],
            ["experiment", "gaussian-single", "--output", "o.csv", "--workers"],
            ["store", "put", "s", "--field", "f.npy", "--workers"],
            ["store", "get", "s", "--workers"],
            ["figure", "3", "--workers"],
            ["serve", "root", "--decode-workers"],
            ["serve", "root", "--max-concurrency"],
            ["serve", "root", "--cache-mb"],
            ["serve", "root", "--max-body-mb"],
            ["serve", "root", "--access-log-max-bytes"],
            ["serve", "root", "--access-log-backups"],
        ],
    )
    def test_non_positive_count_is_a_usage_error(self, argv, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + [count])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"must be at least 1, got {int(count)}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "root", "--slow-requests"],
            ["top", "http://127.0.0.1:8787", "--iterations"],
        ],
    )
    def test_negative_count_is_a_usage_error(self, argv, capsys):
        # 0 stays valid here: it turns capture off / runs top until ^C.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be at least 0, got -1" in err

    def test_two_workers_still_parallelise(self, tmp_path, monkeypatch, capsys):
        import repro.volumes.pipeline as pipeline

        seen = []
        real = pipeline.compress_volume

        def spy(*args, parallel=None, **kwargs):
            seen.append(parallel)
            return real(*args, parallel=parallel, **kwargs)

        monkeypatch.setattr(pipeline, "compress_volume", spy)
        path = tmp_path / "vol.npy"
        save_field(path, np.random.default_rng(4).normal(size=(16, 16, 16)))
        argv = ["compress", str(path), "--volume", "--tile", "8", "--error-bound", "1e-2"]
        assert main(argv + ["--workers", "2"]) == 0
        assert main(argv + ["--workers", "1"]) == 0
        assert seen[0].workers == 2 and seen[1] is None


class TestCompressCommand:
    def test_compress_npy(self, field_npy, capsys):
        code = main(["compress", str(field_npy), "--compressor", "sz", "--error-bound", "1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compression ratio" in out
        assert "bound satisfied" in out and "True" in out

    def test_compress_raw_with_shape(self, tmp_path, capsys):
        field = generate_gaussian_field((32, 40), 6.0, seed=1)
        path = tmp_path / "field.raw"
        save_raw(path, field, dtype="float32")
        code = main(
            [
                "compress",
                str(path),
                "--raw-shape",
                "32",
                "40",
                "--raw-dtype",
                "float32",
                "--compressor",
                "zfp",
            ]
        )
        assert code == 0
        assert "compression ratio" in capsys.readouterr().out

    def test_compress_3d_takes_middle_slice(self, tmp_path, capsys):
        volume = np.random.default_rng(2).normal(size=(6, 24, 24))
        path = tmp_path / "vol.npy"
        save_field(path, volume)
        code = main(["compress", str(path), "--error-bound", "1e-2"])
        assert code == 0

    def test_compress_3d_volume_natively(self, tmp_path, capsys):
        volume = np.random.default_rng(3).normal(size=(8, 20, 20))
        path = tmp_path / "vol.npy"
        save_field(path, volume)
        code = main(
            [
                "compress",
                str(path),
                "--volume",
                "--tile",
                "16",
                "--error-bound",
                "1e-2",
                "--baseline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "volume shape" in out and "8x20x20" in out
        assert "tiles" in out
        assert "slice-by-slice baseline CR" in out

    def test_compress_volume_flag_rejects_2d(self, field_npy):
        with pytest.raises(SystemExit):
            main(["compress", str(field_npy), "--volume"])

    @pytest.mark.parametrize(
        "shape, flags",
        [
            ((32, 32), []),
            ((16, 16, 16), ["--volume", "--tile", "8"]),
            ((16, 16, 16), ["--volume", "--stream", "--tile", "8"]),
        ],
        ids=["2d", "volume", "stream"],
    )
    def test_rel_bound_on_a_constant_field_is_the_raw_bound(
        self, tmp_path, capsys, shape, flags
    ):
        path = tmp_path / "const.npy"
        save_field(path, np.full(shape, 3.5))
        argv = ["compress", str(path), "--mode", "rel", "--error-bound", "1e-3"]
        code = main(argv + flags)
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"error bound\s+0\.001 \(abs\)", out)
        assert re.search(r"bound satisfied\s+True", out)

    def test_rel_bound_scales_by_the_volume_range_streamed_or_not(
        self, tmp_path, capsys
    ):
        volume = np.random.default_rng(4).normal(size=(16, 12, 12))
        path = tmp_path / "vol.npy"
        save_field(path, volume)
        expected = f"{1e-2 * (volume.max() - volume.min()):g} (abs)"
        for flags in (["--volume"], ["--volume", "--stream"]):
            argv = ["compress", str(path), "--mode", "rel", "--error-bound", "1e-2"]
            assert main(argv + flags + ["--tile", "8"]) == 0
            assert expected in capsys.readouterr().out

    def test_constant_volume_reports_one_psnr_streamed_or_not(
        self, tmp_path, capsys
    ):
        path = tmp_path / "const.npy"
        save_field(path, np.full((16, 16, 16), 0.1234567))
        rows = []
        for flags in (["--volume"], ["--volume", "--stream"]):
            main(["compress", str(path), "--tile", "8"] + flags)
            out = capsys.readouterr().out
            rows.append(re.findall(r"^\s*(RMSE|PSNR \(dB\))\s+(\S+)$", out, re.MULTILINE))
        assert rows[0] == [("RMSE", "5.433e-04"), ("PSNR (dB)", "-inf")]
        assert rows[1] == rows[0]


class TestStatsCommand:
    def test_stats_output(self, field_npy, capsys):
        code = main(["stats", str(field_npy), "--window", "32"])
        out = capsys.readouterr().out
        assert code == 0
        assert "global variogram range" in out
        assert "std local variogram range" in out
        assert "quantized entropy" in out

    def test_stats_small_field_skips_local(self, tmp_path, capsys):
        field = generate_gaussian_field((24, 24), 4.0, seed=3)
        path = tmp_path / "small.npy"
        save_field(path, field)
        code = main(["stats", str(path), "--window", "32"])
        out = capsys.readouterr().out
        assert code == 0
        assert "std local variogram range" not in out


class TestExperimentCommand:
    def test_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "records.csv"
        code = main(
            [
                "experiment",
                "gaussian-single",
                "--output",
                str(output),
                "--size",
                "48",
                "--bounds",
                "1e-3",
                "1e-2",
                "--compressors",
                "sz",
                "--skip-local-stats",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(output.read_text())))
        assert len(rows) == 6 * 2  # 6 fields x 1 compressor x 2 bounds
        assert {row["compressor"] for row in rows} == {"sz"}


class TestFigureCommand:
    def test_figure3_table(self, capsys):
        code = main(["figure", "3", "--size", "48"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out
        assert "alpha" in out and "beta" in out

    def test_figure3_markdown(self, capsys):
        code = main(["figure", "3", "--size", "48", "--markdown"])
        out = capsys.readouterr().out
        assert code == 0
        assert "| compressor |" in out


class TestStoreCommand:
    def test_put_get_info_ls_round_trip(self, tmp_path, field_npy, capsys):
        store_dir = tmp_path / "store"
        code = main(
            [
                "store",
                "put",
                str(store_dir),
                "--field",
                str(field_npy),
                "--chunk",
                "32",
                "--codec",
                "sz",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compression ratio" in out
        assert "sz:4" in out  # 64x64 field in 32^2 chunks

        output = tmp_path / "region.npy"
        code = main(
            [
                "store",
                "get",
                str(store_dir),
                "--region",
                "0:16,0:16",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decoded 1/4 chunks" in out
        region = np.load(output)
        original = np.load(field_npy)
        assert region.shape == (16, 16)
        assert np.abs(region - original[:16, :16]).max() <= 1e-3 * (1 + 1e-9)

        assert main(["store", "info", str(store_dir)]) == 0
        assert "codec policy" in capsys.readouterr().out
        assert main(["store", "ls", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "chunk" in out and "32x32" in out

    def test_put_from_dataset_registry_best(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            [
                "store",
                "put",
                str(store_dir),
                "--dataset",
                "gaussian-single",
                "--label",
                "gaussian-single-a16",
                "--chunk",
                "64",
                "--codec",
                "best:sz+zfp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gaussian-single-a16" in out
        assert "best:sz+zfp" in out

    @pytest.mark.parametrize("codec", ["nope", "best:sz+", "best:sz+sz", "adaptive"])
    def test_bad_codec_policy_is_a_usage_error(self, tmp_path, field_npy, codec, capsys):
        store_dir = tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main(["store", "put", str(store_dir), "--field", str(field_npy), "--codec", codec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "codec policy spec" in err
        assert not store_dir.exists()

    def test_append_to_store_with_retired_policy(self, tmp_path, field_npy, capsys):
        from tests.store.test_array_store import RETIRED_SPEC, retire_policy

        store_dir = tmp_path / "store"
        assert main(["store", "put", str(store_dir), "--field", str(field_npy)]) == 0
        retire_policy(store_dir)
        assert main(["store", "info", str(store_dir)]) == 0
        assert RETIRED_SPEC in capsys.readouterr().out
        assert main(["store", "ls", str(store_dir)]) == 0
        assert "sz" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["store", "append", str(store_dir), "--field", str(field_npy)])
        # A message for stderr, not an uncaught ValueError.
        assert RETIRED_SPEC in exc.value.code

    def test_put_unknown_label_lists_available(self, tmp_path):
        with pytest.raises(SystemExit, match="available"):
            main(
                [
                    "store",
                    "put",
                    str(tmp_path / "s"),
                    "--dataset",
                    "gaussian-single",
                    "--label",
                    "nope",
                ]
            )

    def test_get_bad_region_component(self, tmp_path, field_npy):
        store_dir = tmp_path / "store"
        main(["store", "put", str(store_dir), "--field", str(field_npy)])
        with pytest.raises(SystemExit, match="region"):
            main(["store", "get", str(store_dir), "--region", "0:1:2"])

    def test_info_on_empty_store(self, tmp_path, capsys):
        from repro.store import ArrayStore

        ArrayStore.create(tmp_path / "empty")
        assert main(["store", "info", str(tmp_path / "empty")]) == 0
        assert "no data yet" in capsys.readouterr().out


class TestProfileCommand:
    def test_writes_a_speedscope_profile_with_samples(self, tmp_path, capsys):
        from repro.datasets.miranda import generate_miranda_like_volume

        volume = tmp_path / "vol.npy"
        save_field(volume, generate_miranda_like_volume((32, 32, 32), seed=3))
        out = tmp_path / "prof.json"
        argv = ["compress", str(volume), "--volume", "--tile", "16"]
        assert main(["profile", "--out", str(out), "--hz", "1000", "--"] + argv) == 0
        document = json.loads(out.read_text())
        assert document["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert document["repro"]["samples"] > 0
        assert "samples" in capsys.readouterr().out

    def test_returns_the_wrapped_exit_code(self, tmp_path):
        bad = Path(__file__).parent / "analysis" / "fixtures" / "async_blocking_bad.py"
        out = tmp_path / "prof.json"
        assert main(["profile", "--out", str(out), "--", "lint", str(bad)]) == 1
        assert "$schema" in json.loads(out.read_text())


class TestStoreUrlErrors:
    def test_server_error_exits_with_message_not_traceback(self, tmp_path, capsys):
        from repro.serve.server import ServerConfig, ThreadedServer

        field = tmp_path / "f.npy"
        np.save(field, generate_gaussian_field((32, 32), 4.0, seed=0))
        with ThreadedServer(ServerConfig(root=str(tmp_path / "root"))) as threaded:
            url = threaded.url
            with pytest.raises(SystemExit) as excinfo:
                main(["store", "append", "missing", "--field", str(field), "--url", url])
        assert str(excinfo.value) == f"{url}: HTTP 404: no such dataset: missing"
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err


class TestTopCommand:
    def test_one_frame_from_a_live_server(self, tmp_path, capsys):
        from repro.serve.client import StoreClient
        from repro.serve.server import ServerConfig, ThreadedServer

        field = generate_gaussian_field((64, 64), 12.0, seed=0)
        with ThreadedServer(ServerConfig(root=str(tmp_path))) as threaded:
            with StoreClient(threaded.url) as client:
                client.put("ds", field, chunk=32)
                for _ in range(3):
                    client.get("ds", (slice(0, 16), slice(0, 16)))
            # The history ticker samples every 5 s; take the post-traffic
            # point now instead of waiting for it.
            threaded.server.history.sample_now()
            capsys.readouterr()
            url = threaded.url
            assert main(["top", url, "--iterations", "1"]) == 0
        frame = capsys.readouterr().out
        assert frame.startswith(f"repro top — {url}\n")
        assert re.search(r"^read\s+3\s", frame, re.MULTILINE)
        assert re.search(r"^cache hot-chunk: \S+ hit", frame, re.MULTILINE)
