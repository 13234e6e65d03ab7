"""Sampling profiler: where wall time goes, without recompiling anything.

The tracer (:mod:`repro.obs.trace`) answers "how long did the stages we
*predicted* would matter take"; this module answers the complementary
question — "where does the time actually go" — by sampling every
thread's Python stack on a fixed cadence.  That makes it safe to leave
running against production-sized work: the cost is one
``sys._current_frames()`` walk per tick (a few hundred microseconds at
the default 99 Hz, held under 5% by ``tests/obs/test_overhead.py``),
independent of how hot the code under it is, and nothing in the profiled
code needs instrumentation.

* :class:`SamplingProfiler` — a background daemon thread over
  :func:`sys._current_frames`, thread-aware (each OS thread accumulates
  its own stacks, keyed by thread name), with a configurable rate.
  Frames are keyed by ``(function, file, first line)`` so every call
  site of a function aggregates into one node.
* **Speedscope export** (:meth:`SamplingProfiler.speedscope`) — the
  JSON file format of https://www.speedscope.app (one ``sampled``
  profile per thread, weights in seconds), which renders time-ordered,
  left-heavy and sandwich views directly in a browser.

Entry points: the ``repro profile --out prof.json -- <repro subcommand
...>`` wrapper and the server's on-demand ``GET /debug/profile?seconds=N``.

The profiler samples at 99 Hz by default (not 100): a prime-ish rate
avoids lockstep with periodic work such as the metrics-history ticker,
which at a round 100 Hz could alias into systematically over- or
under-sampled frames.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_HZ",
    "FrameKey",
    "SamplingProfiler",
]

#: Default sampling rate in samples per second.
DEFAULT_HZ = 99.0

#: One stack frame: (function name, source file, first line of the def).
FrameKey = Tuple[str, str, int]


class SamplingProfiler:
    """Sample every thread's Python stack ``hz`` times per second.

    Use as a context manager (``with SamplingProfiler() as prof: ...``)
    or with explicit :meth:`start` / :meth:`stop`.  Aggregated stacks
    survive ``stop``; a profiler instance is single-shot (make a new one
    per run — restarting would blur two time windows into one profile).
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if not hz > 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        # lane (thread name) -> stack (root-first frame tuple) -> samples
        self._counts: Dict[str, Dict[Tuple[FrameKey, ...], int]] = {}
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._elapsed: float = 0.0
        self.sample_count = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started (single-shot)")
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop_event.set()
        self._thread.join()
        if self._started_at is not None:
            self._elapsed = time.perf_counter() - self._started_at
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    @property
    def elapsed(self) -> float:
        """Profiled wall time in seconds (running total while active)."""

        if self._started_at is None:
            return 0.0
        if self._thread is not None and self._thread.is_alive():
            return time.perf_counter() - self._started_at
        return self._elapsed

    # -- sampling --------------------------------------------------------
    def _run(self) -> None:
        own_id = threading.get_ident()
        # Event.wait as the cadence: no drift correction needed at the
        # accuracy flamegraphs care about, and it wakes immediately on
        # stop() instead of sleeping out the tick.
        while not self._stop_event.wait(self.interval):
            self._sample_once(own_id)

    def _sample_once(self, own_id: int) -> None:
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        self.sample_count += 1
        with self._lock:
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                stack: List[FrameKey] = []
                while frame is not None:
                    code = frame.f_code
                    stack.append(
                        (code.co_name, code.co_filename, code.co_firstlineno)
                    )
                    frame = frame.f_back
                stack.reverse()
                lane = names.get(thread_id, f"thread-{thread_id}")
                per_lane = self._counts.setdefault(lane, {})
                key = tuple(stack)
                per_lane[key] = per_lane.get(key, 0) + 1

    # -- aggregated views ------------------------------------------------
    def stacks(self) -> Dict[str, Dict[Tuple[FrameKey, ...], int]]:
        """Snapshot of ``{thread name: {root-first stack: samples}}``."""

        with self._lock:
            return {lane: dict(counts) for lane, counts in self._counts.items()}

    def hot_functions(self, top: int = 10) -> List[Tuple[str, int, int]]:
        """``(label, self samples, total samples)`` rows, hottest first.

        ``self`` counts samples where the function was on top of a
        stack; ``total`` counts samples where it appeared anywhere
        (inclusive time).  Sorted by self samples — the flame tips.
        """

        self_counts: Dict[FrameKey, int] = {}
        total_counts: Dict[FrameKey, int] = {}
        for counts in self.stacks().values():
            for stack, n in counts.items():
                if not stack:
                    continue
                leaf = stack[-1]
                self_counts[leaf] = self_counts.get(leaf, 0) + n
                for key in set(stack):
                    total_counts[key] = total_counts.get(key, 0) + n
        rows = [
            (_frame_label(key), self_counts.get(key, 0), total)
            for key, total in total_counts.items()
        ]
        rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
        return rows[:top]

    # -- exports ---------------------------------------------------------
    def speedscope(self, name: str = "repro profile") -> Dict:
        """The profile as a speedscope JSON document (one lane per thread).

        ``sampled``-type profiles with second weights: each distinct
        stack is emitted once with weight ``samples / hz`` — speedscope
        treats samples as unordered weight, so aggregation loses nothing
        the flame views use.
        """

        frame_index: Dict[FrameKey, int] = {}
        frames: List[Dict] = []

        def index_of(key: FrameKey) -> int:
            idx = frame_index.get(key)
            if idx is None:
                idx = frame_index[key] = len(frames)
                frames.append(
                    {"name": key[0], "file": key[1], "line": key[2]}
                )
            return idx

        profiles = []
        snapshot = self.stacks()
        for lane in sorted(snapshot):
            counts = snapshot[lane]
            samples: List[List[int]] = []
            weights: List[float] = []
            lane_total = 0.0
            for stack, n in sorted(counts.items()):
                samples.append([index_of(key) for key in stack])
                weight = n / self.hz
                weights.append(weight)
                lane_total += weight
            profiles.append(
                {
                    "type": "sampled",
                    "name": lane,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": lane_total,
                    "samples": samples,
                    "weights": weights,
                }
            )
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": profiles,
            "name": name,
            "exporter": "repro-sampling-profiler",
            "repro": {
                "hz": self.hz,
                "samples": self.sample_count,
                "elapsed_seconds": self.elapsed,
            },
        }

    def write_speedscope(self, path: str, name: str = "repro profile") -> None:
        """Write the speedscope JSON document to ``path``."""

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.speedscope(name), handle)
            handle.write("\n")


def _frame_label(key: FrameKey) -> str:
    name, filename, line = key
    return f"{name} ({os.path.basename(filename)}:{line})"
