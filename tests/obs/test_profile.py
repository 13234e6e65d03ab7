"""Sampling profiler: capture, aggregation, exports, lifecycle."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs.profile import SamplingProfiler


def _spin_until(stop: threading.Event) -> None:
    while not stop.is_set():
        _busy_leaf()


def _busy_leaf() -> float:
    total = 0.0
    for i in range(2000):
        total += i * 0.5
    return total


@pytest.fixture()
def busy_thread():
    """A named worker thread spinning in a recognisable Python frame."""

    stop = threading.Event()
    thread = threading.Thread(
        target=_spin_until, args=(stop,), name="busy-worker", daemon=True
    )
    thread.start()
    yield thread
    stop.set()
    thread.join()


class TestCapture:
    def test_samples_accumulate_and_name_the_hot_function(self, busy_thread):
        with SamplingProfiler(hz=200) as profiler:
            time.sleep(0.3)
        assert profiler.sample_count > 10
        stacks = profiler.stacks()
        assert "busy-worker" in stacks
        labels = [
            label for label, _, _ in profiler.hot_functions(top=20)
        ]
        assert any("_busy_leaf" in label or "_spin_until" in label for label in labels)

    def test_thread_lanes_are_separate(self, busy_thread):
        with SamplingProfiler(hz=200) as profiler:
            # The main thread is busy too — both lanes must accumulate.
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                _busy_leaf()
        stacks = profiler.stacks()
        assert "busy-worker" in stacks
        assert "MainThread" in stacks

    def test_profiler_skips_its_own_sampling_thread(self, busy_thread):
        with SamplingProfiler(hz=200) as profiler:
            time.sleep(0.2)
        assert "repro-profiler" not in profiler.stacks()

    def test_elapsed_tracks_wall_time(self):
        profiler = SamplingProfiler(hz=50)
        assert profiler.elapsed == 0.0
        profiler.start()
        time.sleep(0.1)
        profiler.stop()
        assert 0.05 < profiler.elapsed < 5.0
        frozen = profiler.elapsed
        time.sleep(0.05)
        assert profiler.elapsed == frozen  # frozen after stop


class TestLifecycle:
    def test_single_shot_restart_raises(self):
        profiler = SamplingProfiler(hz=50)
        profiler.start()
        profiler.stop()
        with pytest.raises(RuntimeError):
            profiler.start()

    def test_stop_without_start_is_a_noop(self):
        profiler = SamplingProfiler()
        assert profiler.stop() is profiler

    @pytest.mark.parametrize("hz", (0, -1.0))
    def test_bad_rate_rejected(self, hz):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=hz)


class TestExports:
    def test_speedscope_document_shape(self, busy_thread):
        with SamplingProfiler(hz=200) as profiler:
            time.sleep(0.25)
        doc = profiler.speedscope("unit test")
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert doc["name"] == "unit test"
        frames = doc["shared"]["frames"]
        assert frames and all(
            {"name", "file", "line"} <= set(frame) for frame in frames
        )
        lanes = {profile["name"] for profile in doc["profiles"]}
        assert "busy-worker" in lanes
        for profile in doc["profiles"]:
            assert profile["type"] == "sampled"
            assert profile["unit"] == "seconds"
            assert len(profile["samples"]) == len(profile["weights"])
            for sample in profile["samples"]:
                for index in sample:
                    assert 0 <= index < len(frames)
            assert profile["endValue"] == pytest.approx(
                sum(profile["weights"])
            )
        assert doc["repro"]["hz"] == 200
        assert doc["repro"]["samples"] == profiler.sample_count

    def test_speedscope_weights_sum_to_sampled_time(self, busy_thread):
        with SamplingProfiler(hz=100) as profiler:
            time.sleep(0.3)
        doc = profiler.speedscope()
        lane = next(
            p for p in doc["profiles"] if p["name"] == "busy-worker"
        )
        # Each sample weighs 1/hz seconds; the lane total equals the
        # number of samples that saw the thread divided by the rate.
        assert sum(lane["weights"]) == pytest.approx(
            sum(
                n for n in profiler.stacks()["busy-worker"].values()
            ) / 100.0
        )

    def test_write_speedscope_is_loadable_json(self, busy_thread, tmp_path):
        with SamplingProfiler(hz=200) as profiler:
            time.sleep(0.15)
        out = tmp_path / "prof.speedscope.json"
        profiler.write_speedscope(str(out))
        doc = json.loads(out.read_text())
        assert doc["profiles"]

    def test_empty_profiler_exports_cleanly(self):
        profiler = SamplingProfiler()
        doc = profiler.speedscope()
        assert doc["profiles"] == []
        assert profiler.hot_functions() == []


class TestHotFunctions:
    def test_self_versus_total_attribution(self):
        profiler = SamplingProfiler(hz=100)
        # Synthesise deterministic stacks: parent calls leaf.
        parent = ("parent", "p.py", 1)
        leaf = ("leaf", "l.py", 10)
        profiler._counts["main"] = {
            (parent, leaf): 8,
            (parent,): 2,
        }
        rows = {label: (s, t) for label, s, t in profiler.hot_functions()}
        leaf_row = rows["leaf (l.py:10)"]
        parent_row = rows["parent (p.py:1)"]
        assert leaf_row == (8, 8)
        assert parent_row == (2, 10)
