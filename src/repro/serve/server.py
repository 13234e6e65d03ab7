"""The asyncio array server: routing, concurrency gate, coalescing.

Architecture (one event loop, one thread pool):

* Connections are asyncio streams; each parsed request passes through a
  single semaphore-bounded **concurrency gate** (the
  ``gather_with_concurrency`` idiom) before any work happens, so a flood
  of clients degrades to queueing, never to memory blow-up.  Gate
  occupancy is tracked and surfaced in ``/stats`` — the fault tests
  assert it returns to idle even when clients vanish mid-response.
* Store work (chunk decodes, compression) is CPU-bound and runs on a
  small :class:`~concurrent.futures.ThreadPoolExecutor` via
  ``run_in_executor`` so the loop keeps accepting connections.
* Per-dataset **read/write coordination**: reads share the dataset, a
  PUT/append/compact waits for readers to drain and excludes everything
  else.  Cross-*process* writers are handled one level down by the
  snapshot layer's atomic loads (:mod:`repro.store.snapshot`).
* Identical in-flight region reads **coalesce** onto one decode task
  (singleflight): concurrent clients sweeping the same hot regions cost
  one decode per distinct request, not one per client.  Only in-flight
  work is shared — results are not cached beyond the hot-chunk LRU
  (:class:`~repro.serve.cache.HotChunkCache`), which is content-hash
  keyed and therefore needs no invalidation on writes.
"""

from __future__ import annotations

import asyncio
import contextvars
import heapq
import io
import json
import os
import re
import threading
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.accesslog import AccessLog
from repro.obs.dash import render_dashboard
from repro.obs.history import MetricsHistory
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    json_finite,
    publish_cache_counters,
    render_prometheus,
)
from repro.obs.profile import DEFAULT_HZ, SamplingProfiler
from repro.obs.trace import Tracer, _json_safe, use_request_tracer
from repro.obs.trace import span as obs_span
from repro.serve.cache import HotChunkCache
from repro.serve.http import (
    HttpError,
    Request,
    read_request,
    render_response,
)
from repro.store.array_store import ArrayStore
from repro.store.format import StoreCorruptionError, StoreFormatError
from repro.store.region import format_region, parse_region_text
from repro.store.snapshot import StoreSnapshot

__all__ = ["ServerConfig", "ArrayServer", "SlowRequestLog", "ThreadedServer"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Upper bound on ``GET /debug/profile?seconds=N``.
PROFILE_MAX_SECONDS = 60.0


def _is_dataset(path: str) -> bool:
    return os.path.isfile(os.path.join(path, "meta.json"))


@dataclass
class ServerConfig:
    """Tunables for one :class:`ArrayServer`."""

    root: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, bound port on server.port
    max_concurrency: int = 8
    cache_nbytes: int = 256 * 1024 * 1024
    decode_workers: int = 2
    #: Largest accepted request body and largest decoded region response.
    max_body_nbytes: int = 512 * 1024 * 1024
    #: JSON-lines access-log path (``None`` disables the log).
    access_log: Optional[str] = None
    #: Rotate the access log before it would exceed this size (``None``
    #: disables rotation).
    access_log_max_bytes: Optional[int] = None
    #: Rotated access-log files kept (``path.1`` … ``path.N``).
    access_log_backups: int = 3
    #: Slowest span trees retained per route (0 disables capture).
    slow_requests_per_route: int = 8


class SlowRequestLog:
    """Tail-based retention: only the slowest-N entries per route survive.

    Every request *may* be offered; a per-route min-heap keyed on
    duration keeps the ``per_route`` slowest and evicts the fastest of
    the retained set when a slower one arrives.  :meth:`qualifies` is
    the cheap pre-check — callers build the (comparatively expensive)
    span-tree entry only for requests that would actually be retained.
    """

    def __init__(self, per_route: int = 8) -> None:
        if per_route < 1:
            raise ValueError(f"per_route must be >= 1, got {per_route}")
        self.per_route = per_route
        self._lock = threading.Lock()
        self._seq = 0
        self._heaps: Dict[str, List[Tuple[float, int, Dict]]] = {}

    def qualifies(self, route: str, duration: float) -> bool:
        """Would a request of ``duration`` on ``route`` be retained?"""

        with self._lock:
            heap = self._heaps.get(route)
            if heap is None or len(heap) < self.per_route:
                return True
            return duration > heap[0][0]

    def record(self, route: str, duration: float, entry: Dict) -> None:
        with self._lock:
            heap = self._heaps.setdefault(route, [])
            self._seq += 1
            item = (duration, self._seq, entry)
            if len(heap) < self.per_route:
                heapq.heappush(heap, item)
            elif duration > heap[0][0]:
                heapq.heapreplace(heap, item)

    def snapshot(self) -> Dict[str, List[Dict]]:
        """``{route: [entry, ...]}``, slowest first within each route."""

        with self._lock:
            return {
                route: [item[2] for item in sorted(heap, reverse=True)]
                for route, heap in self._heaps.items()
            }


class _DatasetLock:
    """Async readers-writer lock (write-preferring enough for our mix)."""

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False

    @asynccontextmanager
    async def read(self):
        async with self._cond:
            await self._cond.wait_for(lambda: not self._writer)
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @asynccontextmanager
    async def write(self):
        async with self._cond:
            await self._cond.wait_for(
                lambda: not self._writer and self._readers == 0
            )
            self._writer = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer = False
                self._cond.notify_all()


class ArrayServer:
    """Serve every store under ``config.root`` over HTTP.

    Use :meth:`start` + :meth:`serve_forever` on a running loop (the CLI
    does), or :class:`ThreadedServer` to run one in a background thread
    (tests and benchmarks).
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.cache = HotChunkCache(max_nbytes=config.cache_nbytes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._gate: Optional[asyncio.Semaphore] = None
        self._executor = None
        self._locks: Dict[str, _DatasetLock] = {}
        self._inflight: Dict[Tuple, asyncio.Task] = {}
        self._connections: set = set()
        # Counters (mutated on the loop thread, read anywhere — ints are
        # swapped atomically under the GIL).
        self.requests_total = 0
        self.coalesced_reads = 0
        self.decoded_bytes_served = 0
        self.gate_active = 0
        self.gate_peak = 0
        # Per-server metrics registry (fresh per instance, so parallel
        # test servers never share counters); the plain ints above stay
        # the source of truth and are published via a collector.
        self.registry = MetricsRegistry()
        self.registry.register_collector(self._collect_metrics)
        self._request_seq = 0
        self._access_log: Optional[AccessLog] = (
            AccessLog(
                config.access_log,
                max_bytes=config.access_log_max_bytes,
                backups=config.access_log_backups,
            )
            if config.access_log
            else None
        )
        # Flight recorder: metrics history ticker + slow-request capture
        # + on-demand profiler (one run in flight at a time).
        self.history = MetricsHistory((self.registry, REGISTRY))
        self._slow_log: Optional[SlowRequestLog] = (
            SlowRequestLog(config.slow_requests_per_route)
            if config.slow_requests_per_route > 0
            else None
        )
        self._profiling = False

    # -- lifecycle -------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._gate = asyncio.Semaphore(self.config.max_concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.decode_workers,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            # readuntil() needs headroom for the request head; bodies are
            # length-framed and unaffected.
            limit=64 * 1024,
        )
        self.history.start()

    async def close(self) -> None:
        self.history.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._inflight.values()):
            task.cancel()
        # Kick lingering keep-alive connections so their handler tasks
        # finish before the loop goes away.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._access_log is not None:
            self._access_log.close()

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(asyncio.current_task())
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_nbytes
                    )
                except HttpError as exc:
                    head, body = self._error_response(exc.status, exc.message, False)
                    writer.write(head + body)
                    await writer.drain()
                    return
                if request is None:
                    return
                self.requests_total += 1
                request_id = (
                    request.headers.get("x-request-id") or self._make_request_id()
                )
                # Flight recorder: every request gets a private tracer
                # (context-local, so concurrent requests never mix), but
                # the span tree is only exported if the request turns out
                # to be among the slowest-N for its route.
                tracer: Optional[Tracer] = (
                    Tracer(request_id) if self._slow_log is not None else None
                )
                route, captures = _route(request)
                began = time.perf_counter()
                with use_request_tracer(tracer):
                    head, body, keep, status = await self._gated_dispatch(
                        request, route, captures, request_id
                    )
                duration = time.perf_counter() - began
                self._observe_request(
                    request,
                    route.label,
                    request_id=request_id,
                    status=status,
                    duration=duration,
                    nbytes=len(body),
                )
                if tracer is not None and self._slow_log.qualifies(
                    route.label, duration
                ):
                    self._slow_log.record(
                        route.label,
                        duration,
                        self._slow_entry(
                            request, request_id, status, duration, began, tracer
                        ),
                    )
                writer.write(head + body)
                await writer.drain()
                if not keep:
                    return
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            TimeoutError,
        ):
            # Peer vanished mid-request or mid-response; the gate slot was
            # already released by _gated_dispatch's finally.
            return
        except asyncio.CancelledError:
            return
        finally:
            self._connections.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError, asyncio.CancelledError):
                pass

    async def _gated_dispatch(
        self,
        request: Request,
        route: "_Route",
        captures: List[str],
        request_id: str = "",
    ) -> Tuple[bytes, bytes, bool, int]:
        assert self._gate is not None
        async with self._gate:
            self.gate_active += 1
            self.gate_peak = max(self.gate_peak, self.gate_active)
            try:
                with obs_span(
                    "serve.request",
                    "serve",
                    route=route.label,
                    request_id=request_id,
                ):
                    status, body, content_type, extra = await self._dispatch(
                        request, route, captures
                    )
            except HttpError as exc:
                status = exc.status
                head, body = self._error_response(
                    exc.status, exc.message, request.keep_alive, request_id
                )
                return head, body, request.keep_alive and status < 500, status
            except (StoreCorruptionError,) as exc:
                head, body = self._error_response(
                    500, str(exc), request.keep_alive, request_id
                )
                return head, body, request.keep_alive, 500
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — last-resort 500
                head, body = self._error_response(
                    500,
                    f"{type(exc).__name__}: {exc}",
                    request.keep_alive,
                    request_id,
                )
                return head, body, request.keep_alive, 500
            finally:
                self.gate_active -= 1
        self._count_status(status)
        extra = dict(extra or {})
        if request_id:
            extra.setdefault("x-request-id", request_id)
        head, body = render_response(
            status,
            body,
            content_type=content_type,
            extra_headers=extra,
            keep_alive=request.keep_alive,
        )
        return head, body, request.keep_alive, status

    def _count_status(self, status: int) -> None:
        """Count one response in the registry, by status class.

        Every response path funnels through here exactly once (the 4xx/5xx
        branches of :meth:`_gated_dispatch` count via
        :meth:`_error_response` only — they used to double-count 500s),
        so error responses can never vanish from, or inflate, the stats.
        """

        self.registry.counter(
            "repro_serve_responses_total",
            labels={"class": f"{status // 100}xx"},
            help="Responses sent, by status class.",
        )

    def _error_response(
        self, status: int, message: str, keep_alive: bool, request_id: str = ""
    ) -> Tuple[bytes, bytes]:
        self._count_status(status)
        payload = json.dumps({"error": message, "status": status}).encode("utf-8")
        return render_response(
            status,
            payload,
            content_type="application/json",
            extra_headers={"x-request-id": request_id} if request_id else None,
            keep_alive=keep_alive,
        )

    def _make_request_id(self) -> str:
        """Generate a request id for requests that did not send one.

        A per-server sequence number, hex-encoded with a short prefix —
        deterministic (no RNG to keep seeded), unique within the server's
        lifetime, and cheap.
        """

        self._request_seq += 1
        return f"req-{self._request_seq:08x}"

    def _observe_request(
        self,
        request: Request,
        label: str,
        *,
        request_id: str,
        status: int,
        duration: float,
        nbytes: int,
    ) -> None:
        """Per-request observability: latency histogram + access log."""

        self.registry.observe(
            "repro_serve_request_seconds",
            duration,
            labels={"route": label},
            help="Request latency by route.",
        )
        if self._access_log is not None:
            self._access_log.log(
                request_id=request_id,
                method=request.method,
                path=request.path,
                status=status,
                duration_ms=duration * 1000.0,
                nbytes=nbytes,
            )

    def _slow_entry(
        self,
        request: Request,
        request_id: str,
        status: int,
        duration: float,
        began: float,
        tracer: Tracer,
    ) -> Dict:
        """Materialize one slow-request capture (span tree included).

        Only built for requests that qualified for retention, so the
        export cost is paid per *retained* request, not per request.
        """

        # repro-lint: disable=timing-discipline -- capture timestamp shown to operators, not a duration
        captured = time.time()
        return {
            "request_id": request_id,
            "method": request.method,
            "path": request.path,
            "status": status,
            "duration_ms": round(duration * 1000.0, 3),
            "captured_at": captured,
            "spans": self._span_tree(tracer, began),
        }

    @staticmethod
    def _span_tree(tracer: Tracer, base: float) -> List[Dict]:
        """The tracer's finished spans as a nested JSON-safe tree.

        Timestamps are milliseconds relative to ``base`` (the request's
        arrival), so the tree reads as a waterfall.
        """

        grouped = tracer.span_tree()

        def render(record) -> Dict:
            node = {
                "name": record.name,
                "category": record.category,
                "lane": record.lane,
                "start_ms": round((record.start - base) * 1000.0, 3),
                "duration_ms": round(record.duration * 1000.0, 3),
            }
            if record.args:
                node["args"] = {
                    key: _json_safe(value) for key, value in record.args.items()
                }
            children = grouped.get(record.span_id)
            if children:
                node["children"] = [render(child) for child in children]
            return node

        return [render(root) for root in grouped.get(None, [])]

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Publish the live plain-int counters into the registry."""

        publish_cache_counters(registry, "hot-chunk", self.cache.counters())
        registry.set_counter(
            "repro_serve_requests_total",
            self.requests_total,
            help="Requests accepted by this server.",
        )
        registry.set_counter(
            "repro_serve_coalesced_reads_total",
            self.coalesced_reads,
            help="Reads served by joining an identical in-flight read.",
        )
        registry.set_counter(
            "repro_serve_decoded_bytes_total",
            self.decoded_bytes_served,
            help="Decoded payload bytes served by region reads.",
        )
        registry.gauge(
            "repro_serve_gate_active",
            self.gate_active,
            help="Requests currently inside the concurrency gate.",
        )
        registry.gauge(
            "repro_serve_gate_peak",
            self.gate_peak,
            help="Peak concurrent requests inside the gate.",
        )
        registry.gauge(
            "repro_serve_gate_max_concurrency",
            self.config.max_concurrency,
            help="Configured concurrency gate size.",
        )

    # -- routing ---------------------------------------------------------
    async def _dispatch(self, request: Request, route: "_Route", captures: List[str]):
        """Run the matched route; returns (status, body, content_type, extra)."""

        if route.handler is None:
            raise HttpError(404, f"no such route: {request.path}")
        if captures and not _NAME_RE.fullmatch(captures[0]):
            raise HttpError(400, f"invalid dataset name {captures[0]!r}")
        if request.method != route.method:
            raise HttpError(
                405, f"{request.method} not allowed here (use {route.method})"
            )
        return await route.handler(self, request, *captures)

    # -- helpers ---------------------------------------------------------
    def _dataset_path(self, name: str) -> str:
        return os.path.join(self.config.root, name)

    def _lock_for(self, name: str) -> _DatasetLock:
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = _DatasetLock()
        return lock

    async def _in_executor(self, fn, *args):
        # copy_context() carries the request-scoped tracer (and any other
        # contextvars) across the executor hop, so spans recorded inside
        # blocking store work land in the right request's capture.
        context = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, lambda: context.run(fn, *args)
        )

    def _existing_dataset(self, name: str) -> str:
        """The dataset's directory; a 404 if it holds no store."""

        path = self._dataset_path(name)
        if not _is_dataset(path):
            raise HttpError(404, f"no such dataset: {name}")
        return path

    def _open_snapshot(self, name: str) -> StoreSnapshot:
        path = self._existing_dataset(name)
        try:
            return StoreSnapshot.open(path)
        except StoreCorruptionError:
            raise
        except StoreFormatError as exc:
            raise HttpError(500, f"unreadable dataset {name}: {exc}") from exc

    async def _coalesced(self, key: Tuple, factory):
        """Singleflight: concurrent identical requests share one task.

        Waiters are shielded so one client disconnecting never cancels
        the shared work under the others; the done-callback both retires
        the key and marks a failure's exception as retrieved (every
        waiter re-raises it themselves).
        """

        task = self._inflight.get(key)
        if task is None:
            task = asyncio.get_running_loop().create_task(factory())

            def _done(t: asyncio.Task, key=key) -> None:
                self._inflight.pop(key, None)
                if not t.cancelled():
                    t.exception()

            task.add_done_callback(_done)
            self._inflight[key] = task
        else:
            self.coalesced_reads += 1
        return await asyncio.shield(task)

    # -- handlers --------------------------------------------------------
    async def _handle_healthz(self, request: Request):
        return 200, b'{"status":"ok"}\n', "application/json", None

    async def _handle_ls(self, request: Request):
        def scan() -> List[str]:
            root = self.config.root
            if not os.path.isdir(root):
                return []
            return [
                entry
                for entry in sorted(os.listdir(root))
                if _is_dataset(os.path.join(root, entry))
            ]

        names = await self._in_executor(scan)
        body = json.dumps({"datasets": names}).encode("utf-8")
        return 200, body, "application/json", None

    async def _handle_stats(self, request: Request):
        body = json.dumps(self.stats()).encode("utf-8")
        return 200, body, "application/json", None

    async def _handle_metrics(self, request: Request):
        """Prometheus text exposition: per-server + library-layer metrics.

        The per-server registry (requests, latencies, gate, hot-chunk
        cache) and the process-wide :data:`~repro.obs.metrics.REGISTRY`
        (volume and store op counters) use disjoint metric names, so
        their concatenation is valid exposition output.
        """

        body = render_prometheus((self.registry, REGISTRY)).encode("utf-8")
        return 200, body, "text/plain; version=0.0.4; charset=utf-8", None

    # -- flight recorder (GET /debug*) -----------------------------------
    async def _handle_dashboard(self, request: Request):
        interval = self.history.interval
        body = render_dashboard(
            poll_ms=max(1000, int(interval * 1000)),
            window_seconds=int(interval * self.history.capacity),
        ).encode("utf-8")
        return 200, body, "text/html; charset=utf-8", None

    async def _handle_vars(self, request: Request):
        window: Optional[float] = None
        if "window" in request.query:
            try:
                window = float(request.query["window"])
            except ValueError as exc:
                raise HttpError(
                    400, f"bad window {request.query['window']!r}"
                ) from exc
            if not window > 0:
                raise HttpError(400, "window must be positive seconds")
        self.history.ensure_fresh()
        payload = json_finite(self.history.series(window))
        body = json.dumps(payload).encode("utf-8")
        return 200, body, "application/json", None

    async def _handle_slow_requests(self, request: Request):
        if self._slow_log is None:
            raise HttpError(404, "slow-request capture disabled")
        payload = {
            "per_route": self._slow_log.per_route,
            "routes": self._slow_log.snapshot(),
        }
        body = json.dumps(payload).encode("utf-8")
        return 200, body, "application/json", None

    async def _handle_profile(self, request: Request):
        """On-demand sampling profile: block this request, sample the rest.

        The profiler thread samples every *other* thread (the loop, the
        decode executor, pool workers) while this handler awaits an
        ``asyncio.sleep`` — so the loop keeps serving and the profile
        shows where concurrent traffic actually spends its time.  One
        run in flight at a time (429 otherwise); duration is capped by
        :data:`PROFILE_MAX_SECONDS`.
        """

        try:
            seconds = float(request.query.get("seconds", "2"))
            hz = float(request.query.get("hz", str(DEFAULT_HZ)))
        except ValueError as exc:
            raise HttpError(400, f"bad profile parameter: {exc}") from exc
        if not 0 < seconds <= PROFILE_MAX_SECONDS:
            raise HttpError(400, f"seconds must be in (0, {PROFILE_MAX_SECONDS}]")
        if not 0 < hz <= 1000:
            raise HttpError(400, "hz must be in (0, 1000]")
        if self._profiling:
            raise HttpError(429, "a profile run is already in flight")
        self._profiling = True
        try:
            profiler = SamplingProfiler(hz=hz)
            profiler.start()
            try:
                await asyncio.sleep(seconds)
            finally:
                profiler.stop()
        finally:
            self._profiling = False
        document = profiler.speedscope(f"repro serve ({seconds:g}s @ {hz:g}Hz)")
        body = json.dumps(document).encode("utf-8")
        extra = {
            "content-disposition": (
                'attachment; filename="repro-profile.speedscope.json"'
            )
        }
        return 200, body, "application/json", extra

    def stats(self) -> Dict:
        """Gate / cache / request counters (the ``/stats`` payload).

        ``metrics`` is the server registry's snapshot; responses by
        status class live only there
        (``repro_serve_responses_total{class=...}``).
        """

        return {
            "requests_total": self.requests_total,
            "coalesced_reads": self.coalesced_reads,
            "decoded_bytes_served": self.decoded_bytes_served,
            "gate": {
                "active": self.gate_active,
                "peak": self.gate_peak,
                "max_concurrency": self.config.max_concurrency,
            },
            "hot_chunk_cache": self.cache.counters(),
            "latency_buckets": list(DEFAULT_LATENCY_BUCKETS),
            "metrics": self.registry.snapshot(),
        }

    async def _handle_info(self, request: Request, name: str):
        async with self._lock_for(name).read():
            snapshot = await self._in_executor(self._open_snapshot, name)
            info = snapshot.info()
        info["name"] = name
        body = json.dumps(info).encode("utf-8")
        return 200, body, "application/json", None

    async def _handle_get(self, request: Request, name: str):
        mode = request.query.get("mode", "decoded")
        if mode not in ("decoded", "chunks"):
            raise HttpError(400, f"unknown mode {mode!r} (decoded|chunks)")
        region_text = request.query.get("region", "")
        try:
            parse_region_text(region_text)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc

        key = (name, mode, region_text)
        if mode == "decoded":
            body, extra = await self._coalesced(
                key, lambda: self._read_decoded(name, region_text)
            )
            self.decoded_bytes_served += len(body)
            return 200, body, "application/x-npy", extra
        body, extra = await self._coalesced(
            key, lambda: self._read_chunks(name, region_text)
        )
        return 200, body, "application/x-repro-chunks", extra

    async def _read_decoded(self, name: str, region_text: str):
        async with self._lock_for(name).read():
            snapshot = await self._in_executor(self._open_snapshot, name)
            region = parse_region_text(region_text)
            self._check_region_size(snapshot, region)

            def decode():
                return snapshot.read(region, chunk_cache=self.cache)

            values, report = await self._in_executor(decode)
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(values), allow_pickle=False)
        extra = {
            "x-region": format_region(region),
            "x-chunks-decoded": str(report.chunks_decoded),
            "x-cache-hits": str(report.cache_hits),
            "x-generation": str(snapshot.generation),
        }
        return buffer.getvalue(), extra

    def _check_region_size(self, snapshot: StoreSnapshot, region) -> None:
        try:
            bounds, _ = snapshot.normalize_region(region)
        except (ValueError, IndexError, TypeError) as exc:
            raise HttpError(400, str(exc)) from exc
        except StoreFormatError as exc:
            raise HttpError(409, str(exc)) from exc
        nbytes = int(
            np.prod([stop - start for start, stop in bounds])
        ) * snapshot.dtype.itemsize
        if nbytes > self.config.max_body_nbytes:
            raise HttpError(
                413,
                f"region decodes to {nbytes} bytes, over the "
                f"{self.config.max_body_nbytes} response limit",
            )

    async def _read_chunks(self, name: str, region_text: str):
        """Client-side-decode payload: index records + needed chunk bytes.

        The body is ``u64le header_length || JSON header || payloads``.
        The header carries a meta-lite dict plus ALL index records with
        offsets rebased into the payload section (records outside the
        region point at its end, so accidental access fails loudly as a
        truncated read); the payload section holds each needed byte range
        once, in the order first referenced.  "Needed" is the region's
        intersecting chunks plus their halo dependency closure, so the
        client rebuilds a :class:`StoreSnapshot` over the body and runs
        the exact same decode the server would have.  Payloads are
        CRC-checked before they ship: a corrupt chunk fails the request
        with a 500, like a server-side decode would.
        """

        async with self._lock_for(name).read():
            snapshot = await self._in_executor(self._open_snapshot, name)
            region = parse_region_text(region_text)
            self._check_region_size(snapshot, region)

            def build():
                bounds, _ = snapshot.normalize_region(region)
                # The read's own plan: intersecting chunks plus the anchors
                # their halo flags reference.
                _, slot_of, _ = snapshot._read_plan(
                    snapshot.intersecting_chunks(bounds)
                )
                needed = [snapshot.linear_index(g) for g in slot_of]

                index = snapshot.index
                payloads = bytearray()
                placed: Dict[Tuple[int, int], int] = {}
                with snapshot.payload_reader() as fetch:
                    for linear in needed:
                        record = index[linear]
                        span = (record.offset, record.length)
                        if span not in placed:
                            placed[span] = len(payloads)
                            payloads.extend(fetch(record))

                sentinel = len(payloads)
                records = []
                included = sorted(needed)
                for linear, record in enumerate(index):
                    span = (record.offset, record.length)
                    offset = placed.get(span, sentinel)
                    records.append(
                        [offset, record.length, record.codec, record.checksum,
                         record.flags]
                    )
                meta = snapshot.meta
                header = {
                    "format": "repro-serve-chunks",
                    "version": 1,
                    "region": format_region(region),
                    "meta": {
                        "format": meta["format"],
                        "format_version": meta["format_version"],
                        "shape": meta["shape"],
                        "dtype": meta["dtype"],
                        "chunk_shape": meta["chunk_shape"],
                        "error_bound": meta["error_bound"],
                        "codec": meta["codec"],
                        "halo": meta.get("halo", False),
                        "generation": meta.get("generation", 0),
                        "chunks": [],
                    },
                    "records": records,
                    "included": included,
                }
                header_bytes = json.dumps(header).encode("utf-8")
                body = (
                    len(header_bytes).to_bytes(8, "little")
                    + header_bytes
                    + bytes(payloads)
                )
                return body, len(included)

            body, n_included = await self._in_executor(build)
        extra = {
            "x-region": format_region(region),
            "x-chunks-included": str(n_included),
            "x-generation": str(snapshot.generation),
        }
        return body, extra

    async def _handle_chunk(self, request: Request, name: str, index_text: str):
        try:
            linear = int(index_text)
        except ValueError as exc:
            raise HttpError(400, f"bad chunk index {index_text!r}") from exc
        async with self._lock_for(name).read():
            snapshot = await self._in_executor(self._open_snapshot, name)
            if not 0 <= linear < snapshot.n_chunks:
                raise HttpError(
                    404, f"chunk {linear} out of range (n={snapshot.n_chunks})"
                )
            record = snapshot.index[linear]
            sha1 = snapshot.payload_sha1(linear)
            etag = f'"{sha1}"' if sha1 else f'"crc32-{record.checksum:08x}"'
            if request.headers.get("if-none-match") == etag:
                return 304, b"", "application/octet-stream", {"etag": etag}

            def fetch() -> bytes:
                with snapshot.payload_reader() as read:
                    return read(record)

            payload = await self._in_executor(fetch)
        extra = {
            "etag": etag,
            "x-codec": record.codec,
            "x-flags": str(record.flags),
        }
        return 200, payload, "application/octet-stream", extra

    # -- mutation --------------------------------------------------------
    def _parse_array_body(self, request: Request) -> np.ndarray:
        if not request.body:
            raise HttpError(400, "empty body (expected .npy bytes)")
        try:
            return np.load(io.BytesIO(request.body), allow_pickle=False)
        except ValueError as exc:
            raise HttpError(400, f"body is not valid .npy data: {exc}") from exc

    async def _handle_put(self, request: Request, name: str):
        array = self._parse_array_body(request)
        query = request.query
        try:
            error_bound = float(query.get("error_bound", "1e-3"))
            chunk = int(query["chunk"]) if "chunk" in query else None
        except ValueError as exc:
            raise HttpError(400, f"bad query parameter: {exc}") from exc
        codec = query.get("codec", "sz")
        halo = query.get("halo", "0") in ("1", "true", "yes")

        def ingest() -> Dict:
            try:
                store = ArrayStore.create(
                    self._dataset_path(name),
                    chunk_shape=chunk,
                    error_bound=error_bound,
                    codec=codec,
                    halo=halo,
                    overwrite=True,
                )
                store.write(array)
            except (ValueError, StoreFormatError) as exc:
                raise HttpError(400, str(exc)) from exc
            return {
                "name": name,
                "shape": list(store.shape),
                "n_chunks": store.n_chunks,
                "compression_ratio": store.compression_ratio,
                "generation": store.generation,
            }

        async with self._lock_for(name).write():
            summary = await self._in_executor(ingest)
        return 200, json.dumps(summary).encode("utf-8"), "application/json", None

    async def _handle_append(self, request: Request, name: str):
        array = self._parse_array_body(request)

        def grow() -> Dict:
            store = ArrayStore.open(self._existing_dataset(name))
            try:
                store.append(array)
            except ValueError as exc:
                raise HttpError(400, str(exc)) from exc
            return {
                "name": name,
                "shape": list(store.shape),
                "n_chunks": store.n_chunks,
                "orphaned_nbytes": store.orphaned_nbytes,
                "generation": store.generation,
            }

        async with self._lock_for(name).write():
            summary = await self._in_executor(grow)
        return 200, json.dumps(summary).encode("utf-8"), "application/json", None

    async def _handle_compact(self, request: Request, name: str):
        def run() -> Dict:
            store = ArrayStore.open(self._existing_dataset(name))
            report = store.compact()
            report["name"] = name
            report["orphaned_nbytes"] = store.orphaned_nbytes
            return report

        async with self._lock_for(name).write():
            summary = await self._in_executor(run)
        return 200, json.dumps(summary).encode("utf-8"), "application/json", None


class _Route(NamedTuple):
    """One row of the route table."""

    #: Path segments; a ``{...}`` segment matches any value and captures
    #: it as a handler argument.
    pattern: Tuple[str, ...]
    method: str
    #: The ``route=`` label of the request span, latency histogram and
    #: slow-request capture.
    label: str
    handler: Optional[Callable]


# Patterns that differ only by method list the GET row first: a path
# matched under no listed method answers 405 naming the first row's.
_ROUTES = tuple(
    _Route(tuple(path.strip("/").split("/")), method, label, handler)
    for path, method, label, handler in (
        ("/healthz", "GET", "healthz", ArrayServer._handle_healthz),
        ("/stats", "GET", "stats", ArrayServer._handle_stats),
        ("/metrics", "GET", "metrics", ArrayServer._handle_metrics),
        ("/debug", "GET", "debug", ArrayServer._handle_dashboard),
        ("/debug/vars", "GET", "debug", ArrayServer._handle_vars),
        ("/debug/requests", "GET", "debug", ArrayServer._handle_slow_requests),
        ("/debug/profile", "GET", "debug", ArrayServer._handle_profile),
        ("/ds", "GET", "ls", ArrayServer._handle_ls),
        ("/ds/{name}", "GET", "read", ArrayServer._handle_get),
        ("/ds/{name}", "PUT", "put", ArrayServer._handle_put),
        ("/ds/{name}/info", "GET", "info", ArrayServer._handle_info),
        ("/ds/{name}/append", "POST", "append", ArrayServer._handle_append),
        ("/ds/{name}/compact", "POST", "compact", ArrayServer._handle_compact),
        ("/ds/{name}/chunk/{index}", "GET", "chunk", ArrayServer._handle_chunk),
    )
)


#: Where a path no row matches resolves: labelled ``other``, answered 404.
_UNMATCHED = _Route((), "", "other", None)


def _route(request: Request) -> Tuple[_Route, List[str]]:
    """The request's route and the path segments its pattern captures.

    The first row matching both path and method wins; failing that, the
    first row matching the path alone (so :meth:`ArrayServer._dispatch`
    answers 405); failing that, :data:`_UNMATCHED`.
    """

    segments = [s for s in request.path.split("/") if s]
    by_path: Optional[Tuple[_Route, List[str]]] = None
    for route in _ROUTES:
        if len(route.pattern) != len(segments):
            continue
        captures = []
        for part, segment in zip(route.pattern, segments):
            if part.startswith("{"):
                captures.append(segment)
            elif part != segment:
                break
        else:
            if route.method == request.method:
                return route, captures
            if by_path is None:
                by_path = (route, captures)
    return by_path or (_UNMATCHED, [])


async def _run_server(config: ServerConfig, ready, stop: asyncio.Event) -> ArrayServer:
    server = ArrayServer(config)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await stop.wait()
    finally:
        await server.close()
    return server


class ThreadedServer:
    """Run an :class:`ArrayServer` on a background thread (tests, bench).

    Context manager: ``with ThreadedServer(config) as ts: ts.url ...``.
    The server object is exposed as ``.server`` for counter assertions;
    its counters are plain ints written on the loop thread.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.server: Optional[ArrayServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def __enter__(self) -> "ThreadedServer":
        def main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._stop = asyncio.Event()

            def ready(server: ArrayServer) -> None:
                self.server = server
                self._started.set()

            try:
                loop.run_until_complete(_run_server(self.config, ready, self._stop))
            except BaseException as exc:  # noqa: BLE001 — reported to starter
                self._failure = exc
                self._started.set()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30) or self.server is None:
            failure = self._failure
            raise RuntimeError(f"server failed to start: {failure!r}")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
