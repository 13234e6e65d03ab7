"""Multi-tenant compression service over the chunked array store.

``repro serve`` exposes every :class:`~repro.store.array_store.ArrayStore`
under a root directory through a small hand-rolled asyncio HTTP/1.1
server (stdlib only — no new runtime deps):

* ``GET /ds`` — list datasets
* ``GET /ds/{name}?region=0:32,0:32`` — decoded region as ``.npy`` bytes
  (``mode=chunks`` returns index records + still-compressed payloads for
  client-side decode instead)
* ``GET /ds/{name}/info`` — store summary (snapshot byte accounting)
* ``GET /ds/{name}/chunk/{i}`` — one raw chunk payload, ETag'd by its
  content hash (``If-None-Match`` → 304)
* ``PUT /ds/{name}`` / ``POST /ds/{name}/append`` — ingestion
* ``POST /ds/{name}/compact`` — reclaim orphaned payload bytes
* ``GET /stats`` / ``GET /healthz`` — gate, cache and request counters
* ``GET /metrics`` / ``GET /debug*`` — Prometheus exposition and the
  flight recorder (always on)

Requests run under a semaphore-bounded concurrency gate with
per-dataset read/write coordination; identical in-flight region reads
coalesce onto one decode, and decoded chunks are shared across requests
through a content-hash-keyed LRU hot cache
(:class:`~repro.serve.cache.HotChunkCache`).

:class:`~repro.serve.client.StoreClient` is the matching stdlib client
(used by ``repro store get --url ...``); its client-side decode mode
rebuilds a :class:`~repro.store.snapshot.StoreSnapshot` over the wire
payload so decoding is bit-identical to a server-side read.
"""

from repro.serve.cache import HotChunkCache
from repro.serve.client import ServeError, StoreClient
from repro.serve.server import ArrayServer, ServerConfig, ThreadedServer

__all__ = [
    "ArrayServer",
    "ServerConfig",
    "ThreadedServer",
    "HotChunkCache",
    "StoreClient",
    "ServeError",
]
