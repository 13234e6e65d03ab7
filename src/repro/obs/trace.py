"""Nested-span tracer: where compression time actually goes.

The pipelines in this repository are deep — a ``compress_volume`` call
fans out over wavefronts, process-pool workers, per-tile codecs and
per-stage array passes — and a single end-to-end wall clock cannot say
whether time went to prediction, quantization, the entropy backend, or
pool overhead.  This module supplies the span layer every hot path is
instrumented with:

* **Context-manager / decorator API** over :func:`time.perf_counter`:
  ``with trace.span("codec.encode.predict"): ...`` or
  ``@trace.traced("store.compact")``.  Spans nest via a
  :mod:`contextvars`-based stack, so executor threads *and* concurrently
  interleaved asyncio tasks (serve requests) each build their own
  correct subtree.
* **Zero-cost when disabled** (the default): the module-level
  :func:`span` checks one global and returns a shared no-op context
  manager — no allocation, no clock read.  ``tests/obs/test_overhead.py``
  holds this overhead at <= 2% of a 64^3 compress.
* **Worker-boundary survival**: a worker captures its own spans into a
  fresh :class:`Tracer` bound with :func:`use_request_tracer`
  (``repro.utils.schedule._traced_task``) and returns them as
  :meth:`Tracer.export_tuples` (plain picklable tuples, versioned); the
  submitting side re-parents them under its current span with
  :meth:`Tracer.adopt`.  On platforms where ``perf_counter`` is a shared
  monotonic clock (Linux: ``CLOCK_MONOTONIC``) the worker timestamps are
  kept as measured; when the clocks are visibly unrelated the whole
  capture is rebased onto the submit time, so the tree stays well-formed
  everywhere.
* **Chrome trace-event export** (:meth:`Tracer.to_chrome_events` /
  :meth:`Tracer.write_chrome_trace`): ``ph: "X"`` complete events with
  microsecond timestamps, one synthetic thread lane per worker capture,
  openable directly in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SPAN_TUPLE_VERSION",
    "Span",
    "Tracer",
    "span",
    "traced",
    "tracing_enabled",
    "install_tracer",
    "active_tracer",
    "request_tracer",
    "use_request_tracer",
]

#: Version tag leading every exported span tuple; bump on layout change.
SPAN_TUPLE_VERSION = 1

#: Thread label given to spans recorded outside any worker capture.
MAIN_LANE = "main"


@dataclass
class Span:
    """One finished span: identity, position in the tree, and its clock."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start: float  # perf_counter seconds
    duration: float  # seconds
    lane: str  # display lane (thread/worker) the span ran on
    args: Dict[str, object] = field(default_factory=dict)

    def to_tuple(self) -> Tuple:
        """Picklable wire form (crosses the parallel worker boundary)."""

        return (
            SPAN_TUPLE_VERSION,
            self.span_id,
            self.parent_id,
            self.name,
            self.category,
            self.start,
            self.duration,
            self.lane,
            tuple(sorted(self.args.items())),
        )

    @staticmethod
    def from_tuple(raw: Tuple) -> "Span":
        if not raw or raw[0] != SPAN_TUPLE_VERSION:
            raise ValueError(f"unsupported span tuple {raw!r}")
        _, span_id, parent_id, name, category, start, duration, lane, args = raw
        return Span(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            category=category,
            start=start,
            duration=duration,
            lane=lane,
            args=dict(args),
        )


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def add(self, **args) -> None:
        """Discard span arguments (mirrors :class:`_LiveSpan.add`)."""


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_record", "_token")

    def __init__(self, tracer: "Tracer", record: Span) -> None:
        self._tracer = tracer
        self._record = record
        self._token = None

    def add(self, **args) -> None:
        """Attach key/value arguments to the span (shown in Perfetto)."""

        self._record.args.update(args)

    def __enter__(self) -> "_LiveSpan":
        record = self._record
        tracer = self._tracer
        record.parent_id = tracer.current_span_id()
        record.lane = _current_lane()
        stack = tracer._stack_var.get()
        self._token = tracer._stack_var.set(stack + (record,))
        record.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        record = self._record
        record.duration = time.perf_counter() - record.start
        if self._token is not None:
            try:
                self._tracer._stack_var.reset(self._token)
            except ValueError:  # pragma: no cover — exited in another context
                pass
        self._tracer._record_finished(record)
        return False


def _current_lane() -> str:
    thread = threading.current_thread()
    return MAIN_LANE if thread is threading.main_thread() else thread.name


class Tracer:
    """Collects spans from any number of threads and tasks into one trace.

    The open-span stack lives in a per-tracer :class:`contextvars.ContextVar`
    holding an immutable tuple: every thread nests its own spans, and —
    because asyncio copies the context per task — concurrently interleaved
    coroutines (e.g. the serve layer's request handlers) each build their
    own correct subtree instead of mis-parenting under whichever span
    happens to be open on the loop thread.  The finished list is shared
    under a lock.  A tracer is *installed* process-wide with
    :func:`install_tracer`, after which the module-level :func:`span`
    records into it from anywhere.
    """

    def __init__(self, process_label: str = "repro") -> None:
        self.process_label = process_label
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._stack_var: "contextvars.ContextVar[Tuple[Span, ...]]" = (
            contextvars.ContextVar(f"repro_span_stack_{id(self):x}", default=())
        )
        self._next_id = 1
        self.created_at = time.perf_counter()

    # -- recording -------------------------------------------------------
    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def current_span_id(self) -> Optional[int]:
        stack = self._stack_var.get()
        return stack[-1].span_id if stack else None

    def span(self, name: str, category: str = "", **args) -> _LiveSpan:
        """Open a nested span; use as ``with tracer.span("name"): ...``.

        Parent, lane and start time are resolved at ``__enter__`` time, so
        a ``_LiveSpan`` can be created ahead of the region it measures.
        """

        record = Span(
            span_id=self._allocate_id(),
            parent_id=None,
            name=name,
            category=category,
            start=0.0,
            duration=0.0,
            lane=MAIN_LANE,
            args=dict(args) if args else {},
        )
        return _LiveSpan(self, record)

    def _record_finished(self, record: Span) -> None:
        with self._lock:
            self._finished.append(record)

    # -- inspection ------------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of the finished spans (open spans are not included)."""

        with self._lock:
            return list(self._finished)

    def span_tree(self) -> Dict[Optional[int], List[Span]]:
        """Finished spans grouped by parent id (``None`` = roots)."""

        tree: Dict[Optional[int], List[Span]] = {}
        for record in self.spans():
            tree.setdefault(record.parent_id, []).append(record)
        for children in tree.values():
            children.sort(key=lambda s: s.start)
        return tree

    # -- worker boundary -------------------------------------------------
    def export_tuples(self) -> List[Tuple]:
        """All finished spans as picklable tuples (worker return value)."""

        return [record.to_tuple() for record in self.spans()]

    def adopt(
        self,
        tuples: Iterable[Tuple],
        *,
        lane: str,
        submit_time: Optional[float] = None,
        parent_id: Optional[int] = None,
    ) -> int:
        """Merge spans captured elsewhere, re-parented under this tracer.

        ``tuples`` is a worker's :meth:`export_tuples` payload.  Root
        spans of the capture are re-parented under ``parent_id`` (default:
        the caller's current open span); every span is moved onto the
        ``lane`` display lane and gets fresh ids.  When ``submit_time``
        is given and the capture's clock is visibly unrelated to ours
        (its earliest timestamp predates the submit time, i.e. the two
        ``perf_counter`` epochs differ), the whole capture is shifted so
        it starts at the submit time; otherwise timestamps are trusted
        as-is (on Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, shared
        across processes).  Returns the number of spans adopted.
        """

        records = [Span.from_tuple(raw) for raw in tuples]
        if not records:
            return 0
        if parent_id is None:
            parent_id = self.current_span_id()
        shift = 0.0
        if submit_time is not None:
            earliest = min(record.start for record in records)
            if earliest < submit_time:
                shift = submit_time - earliest
        id_map: Dict[int, int] = {}
        for record in records:
            id_map[record.span_id] = self._allocate_id()
        adopted: List[Span] = []
        for record in records:
            adopted.append(
                Span(
                    span_id=id_map[record.span_id],
                    parent_id=(
                        id_map[record.parent_id]
                        if record.parent_id in id_map
                        else parent_id
                    ),
                    name=record.name,
                    category=record.category,
                    start=record.start + shift,
                    duration=record.duration,
                    lane=lane,
                    args=record.args,
                )
            )
        with self._lock:
            self._finished.extend(adopted)
        return len(adopted)

    # -- export ----------------------------------------------------------
    def to_chrome_events(self) -> List[Dict]:
        """Chrome trace-event list (``ph: "X"`` complete events).

        Lanes become synthetic thread ids with ``thread_name`` metadata
        so Perfetto shows one row per worker capture; timestamps are
        microseconds relative to the tracer's creation.
        """

        lanes: Dict[str, int] = {}
        events: List[Dict] = []
        for record in sorted(self.spans(), key=lambda s: s.start):
            tid = lanes.setdefault(record.lane, len(lanes) + 1)
            event = {
                "name": record.name,
                "cat": record.category or "repro",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (record.start - self.created_at) * 1e6,
                "dur": record.duration * 1e6,
            }
            if record.args:
                event["args"] = {k: _json_safe(v) for k, v in record.args.items()}
            events.append(event)
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": self.process_label},
            }
        ]
        for lane, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        return metadata + events

    def write_chrome_trace(self, path: str) -> None:
        """Write ``{"traceEvents": [...]}`` JSON for Perfetto."""

        payload = {
            "traceEvents": self.to_chrome_events(),
            "displayTimeUnit": "ms",
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# module-level API: one global active tracer, no-op when absent
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None

#: Request-scoped tracer: set per asyncio task (serve's slow-request
#: capture) via :func:`use_request_tracer`.  Takes priority over the
#: process-global tracer inside its context, so a request's spans land in
#: that request's capture even when a global tracer is also installed.
_REQUEST_TRACER: "contextvars.ContextVar[Optional[Tracer]]" = (
    contextvars.ContextVar("repro_request_tracer", default=None)
)


def tracing_enabled() -> bool:
    """Whether a tracer is installed (i.e. spans are being recorded)."""

    return _ACTIVE is not None or _REQUEST_TRACER.get() is not None


def active_tracer() -> Optional[Tracer]:
    """The installed process-global tracer, or ``None``."""

    return _ACTIVE


def request_tracer() -> Optional[Tracer]:
    """The tracer bound to the current context, or ``None``."""

    return _REQUEST_TRACER.get()


class use_request_tracer:
    """Bind ``tracer`` to the current context for a ``with`` block.

    Context-local (a :mod:`contextvars` var, copied per asyncio task and
    propagated by ``contextvars.copy_context().run`` across executor
    hops), so concurrent serve requests each record into their own
    tracer without touching the process-global one.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[Tracer]:
        self._token = _REQUEST_TRACER.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info) -> bool:
        if self._token is not None:
            _REQUEST_TRACER.reset(self._token)
        return False


def span(name: str, category: str = "", **args):
    """Record a span on the bound tracer; no-op when tracing is off.

    The request-scoped tracer (if the current context has one) wins over
    the process-global tracer, so serve requests capture their own
    subtree.  The fully disabled path is one global load, one contextvar
    load and one identity return — cheap enough for per-tile and
    per-request call sites (per-element loops should still never be
    instrumented).
    """

    tracer = _REQUEST_TRACER.get()
    if tracer is None:
        tracer = _ACTIVE
        if tracer is None:
            return _NOOP
    return tracer.span(name, category, **args)


def traced(name: str, category: str = "") -> Callable:
    """Decorator form: wrap every call of the function in a span."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*fn_args, **fn_kwargs):
            tracer = _REQUEST_TRACER.get() or _ACTIVE
            if tracer is None:
                return fn(*fn_args, **fn_kwargs)
            with tracer.span(name, category):
                return fn(*fn_args, **fn_kwargs)

        return wrapper

    return decorate


class install_tracer:
    """Install ``tracer`` as the process-wide active tracer.

    Context manager (restores the previous tracer on exit) and plain
    call (``install_tracer(tracer)`` leaves it installed; pass ``None``
    to uninstall).  Installation is process-global: every thread and
    every instrumented layer records into the same tracer.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = tracer

    def __enter__(self) -> Optional[Tracer]:
        return _ACTIVE

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False
