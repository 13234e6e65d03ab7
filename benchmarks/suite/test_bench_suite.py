"""Self-test of the benchmark harness (opt-in, like the rest of benchmarks/).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_bench_suite.py -q

Runs every workload for 2 s through the real command line, traced (a
traced invocation makes one untraced and one traced run), and checks
that every metric is emitted with its unit and no operation failed, that
every layer wrapper recorded work on the workload that exercises it (so
the patch reached the lookup site), that a corrupted reference makes the
checker count failures, and that nothing is left behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.suite.harness import ROOT, load_spec

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that must be non-zero on the workload that exercises
#: the layer (the map in README.md).
EXERCISED = {
    "paper-sweep": (
        "stats.calls", "core.records", "core.self_s", "compressors.encode.calls",
        "compressors.predict.self_s", "compressors.quantize.self_s",
        "compressors.transform.self_s", "encoding.encode.calls", "encoding.table_build.calls",
    ),
    "volume-roundtrip": (
        "compressors.encode.calls", "compressors.decode.calls",
        "compressors.halo_correction.busy_s", "encoding.decode.calls",
        "encoding.huffman_decode.busy_s", "encoding.table_build.calls", "volumes.tiles",
        "volumes.waves", "volumes.compress.self_s", "volumes.decode.self_s",
        "parallel.map.calls", "parallel.worker_busy_s",
    ),
    "serve-hot": ("store.open.calls", "store.read.calls", "serve.request.busy_s", "serve.gate.peak"),
    "serve-churn": (
        "stats.calls", "store.open.calls", "store.read.calls", "store.append.calls",
        "store.compact.calls", "compressors.encode.calls", "compressors.decode.calls",
        "encoding.decode.calls", "store.chunks_decoded_per_read", "serve.request.busy_s",
    ),
}


def _bench(out: Path, workload: str, *extra: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _leftovers(out: Path):
    segments = [name for name in os.listdir("/dev/shm") if name.startswith("repro-shm-")]
    processes = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "benchmarks.suite.serve_child" in cmdline or "_run-process" in cmdline:
            processes.append(cmdline)
    scratch = list((out / "tmp").iterdir()) if (out / "tmp").exists() else []
    return segments, processes, scratch


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return request.param, out, _bench(out, request.param, "--trace")


def test_every_metric_is_emitted_and_no_operation_fails(traced):
    workload, out, result = traced
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    untraced = [json.loads(p.read_text()) for p in (out / "raw" / workload).glob("*.json")]
    untraced = [run for run in untraced if not run["trace"]]
    assert len(untraced) == 1 and untraced[0]["failed"] == 0
    for metric in SPEC["end_to_end"]:
        emitted = untraced[0]["end_to_end"][metric["name"]]
        assert emitted["unit"] == metric["unit"] and emitted["value"] > 0


def test_trace_outputs_are_written(traced):
    workload, out, result = traced
    trace = json.loads((out / "trace" / workload / "trace.json").read_text())
    assert trace["traceEvents"]
    layers = json.loads((out / "trace" / workload / "layers.json").read_text())
    assert layers == result["metrics"]
    assert 0.0 < layers["obs.span_coverage"]["value"] <= 1.0


def test_each_wrapper_reached_its_lookup_site(traced):
    workload, _, result = traced
    idle = [name for name in EXERCISED[workload] if not result["metrics"][name]["value"] > 0]
    assert not idle, f"{workload}: no recorded work for {idle}"


def test_nothing_is_left_behind(traced):
    _, out, _ = traced
    segments, processes, scratch = _leftovers(out)
    assert not segments and not processes and not scratch


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_counts_a_corrupted_reference(workload, tmp_path):
    result = _bench(tmp_path, workload, "--corrupt-reference")
    assert not result["correct"] and result["failed"] >= 1
    assert _leftovers(tmp_path) == ([], [], [])
