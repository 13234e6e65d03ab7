"""Tracer unit tests: nesting, the disabled no-op path, the worker
tuple protocol, adoption/re-parenting, and Chrome trace export."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.obs.trace import (
    MAIN_LANE,
    SPAN_TUPLE_VERSION,
    Span,
    Tracer,
    active_tracer,
    install_tracer,
    span,
    traced,
)


class TestDisabled:
    def test_disabled_is_the_default(self):
        assert active_tracer() is None

    def test_span_returns_shared_noop(self):
        first = span("anything", "cat", key="value")
        second = span("other")
        assert first is second  # one shared object, no allocation
        with first as handle:
            handle.add(extra=1)  # discards silently

    def test_traced_function_passes_through(self):
        @traced("work")
        def double(x):
            return 2 * x

        assert double(21) == 42


class TestNesting:
    def test_parent_child_and_siblings(self):
        tracer = Tracer()
        with install_tracer(tracer):
            with span("outer") as outer:
                outer.add(note="root")
                with span("first"):
                    pass
                with span("second"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].parent_id is None
        assert spans["first"].parent_id == spans["outer"].span_id
        assert spans["second"].parent_id == spans["outer"].span_id
        assert spans["outer"].args == {"note": "root"}
        tree = tracer.span_tree()
        assert [s.name for s in tree[None]] == ["outer"]
        assert [s.name for s in tree[spans["outer"].span_id]] == [
            "first",
            "second",
        ]

    def test_install_is_restored_on_exit(self):
        tracer = Tracer()
        with install_tracer(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label):
            with tracer.span(f"outer-{label}"):
                barrier.wait(timeout=5)
                with tracer.span(f"inner-{label}"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,), name=f"worker-{i}")
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = {s.name: s for s in tracer.spans()}
        for i in range(2):
            assert spans[f"inner-{i}"].parent_id == spans[f"outer-{i}"].span_id
            assert spans[f"outer-{i}"].parent_id is None
            assert spans[f"inner-{i}"].lane == f"worker-{i}"

    def test_interleaved_asyncio_tasks_keep_their_own_subtrees(self):
        tracer = Tracer()

        async def request(label):
            with tracer.span(f"request-{label}"):
                await asyncio.sleep(0)  # force interleaving
                with tracer.span(f"stage-{label}"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(request("a"), request("b"))

        asyncio.run(main())
        spans = {s.name: s for s in tracer.spans()}
        for label in ("a", "b"):
            assert (
                spans[f"stage-{label}"].parent_id
                == spans[f"request-{label}"].span_id
            )


class TestTupleProtocol:
    def test_round_trip(self):
        original = Span(
            span_id=7,
            parent_id=3,
            name="codec.encode.predict",
            category="codec",
            start=12.5,
            duration=0.25,
            lane="wave1.tile2",
            args={"shape": "(64, 64)"},
        )
        raw = original.to_tuple()
        assert raw[0] == SPAN_TUPLE_VERSION
        assert Span.from_tuple(raw) == original

    def test_unknown_version_rejected(self):
        raw = (SPAN_TUPLE_VERSION + 1, 1, None, "x", "", 0.0, 0.0, "main", ())
        with pytest.raises(ValueError):
            Span.from_tuple(raw)


class TestAdopt:
    def _capture(self, start=100.0):
        worker = Tracer()
        with worker.span("tile") as tile:
            with worker.span("stage"):
                pass
        tuples = worker.export_tuples()
        # Rebase the capture to a known clock for shift assertions.
        rebased = []
        for raw in tuples:
            record = Span.from_tuple(raw)
            record.start = start + (record.start - worker.created_at)
            rebased.append(record.to_tuple())
        return rebased

    def test_roots_reparent_under_current_span(self):
        parent = Tracer()
        with parent.span("wave"):
            adopted = parent.adopt(self._capture(), lane="wave0.tile0")
        assert adopted == 2
        spans = {s.name: s for s in parent.spans()}
        assert spans["tile"].parent_id == spans["wave"].span_id
        assert spans["stage"].parent_id == spans["tile"].span_id
        assert spans["tile"].lane == "wave0.tile0"
        assert spans["stage"].lane == "wave0.tile0"

    def test_fresh_ids_never_collide(self):
        parent = Tracer()
        with parent.span("wave"):
            parent.adopt(self._capture(), lane="a")
            parent.adopt(self._capture(), lane="b")
        ids = [s.span_id for s in parent.spans()]
        assert len(ids) == len(set(ids))

    def test_unrelated_clock_is_shifted_to_submit_time(self):
        parent = Tracer()
        submit = 500.0
        parent.adopt(
            self._capture(start=100.0), lane="w", submit_time=submit
        )
        earliest = min(s.start for s in parent.spans())
        assert earliest == pytest.approx(submit)

    def test_shared_clock_is_trusted(self):
        parent = Tracer()
        parent.adopt(
            self._capture(start=600.0), lane="w", submit_time=500.0
        )
        earliest = min(s.start for s in parent.spans())
        assert earliest == pytest.approx(600.0)

    def test_empty_capture_is_a_noop(self):
        parent = Tracer()
        assert parent.adopt([], lane="w") == 0


class TestChromeExport:
    def _traced_tracer(self):
        tracer = Tracer(process_label="test-proc")
        with tracer.span("outer", "cat", shape=(2, 3)):
            with tracer.span("inner"):
                pass
        tracer.adopt(
            [
                Span(
                    span_id=1,
                    parent_id=None,
                    name="tile",
                    category="volume",
                    start=tracer.created_at,
                    duration=0.001,
                    lane="ignored",
                    args={},
                ).to_tuple()
            ],
            lane="wave0.tile0",
        )
        return tracer

    def test_event_structure(self):
        events = self._traced_tracer().to_chrome_events()
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert events[: len(meta)] == meta  # metadata leads
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert names == {MAIN_LANE, "wave0.tile0"}
        assert {e["name"] for e in complete} == {"outer", "inner", "tile"}
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        outer = next(e for e in complete if e["name"] == "outer")
        assert outer["args"] == {"shape": "(2, 3)"}  # json-safe repr

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced_tracer().write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
