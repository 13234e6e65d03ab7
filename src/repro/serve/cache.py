"""Shared LRU hot-chunk cache for the serving path.

The store's own decode path already dedups within one read; across
requests every read would still decode the same popular chunks again.
:class:`HotChunkCache` holds *decoded* chunk values (plus their derived
entropy context, when one was collected) keyed by payload content hash
and every parameter the decode depends on — codec, extent, halo digest,
error bound — so byte-identical chunks are shared across datasets while
configurations that decode differently never alias.

Thread-safe: server reads run on a thread pool, so all bookkeeping is
done under one lock (the generalisation of
:class:`repro.core.pipeline.ExperimentCache`, which is single-threaded
by design).  Eviction is LRU by decoded byte size, not entry count —
chunk values dominate memory.  Cached arrays are handed out read-only;
requests slice them into their own output buffers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

__all__ = ["HotChunkCache"]


class HotChunkCache:
    """Content-hash-keyed LRU over decoded chunk values.

    ``max_nbytes`` bounds the sum of cached ``values.nbytes`` (contexts
    are small histograms and are not counted).  A ``get`` with
    ``want_context=True`` only hits when the cached entry carried a
    context — a values-only entry cannot serve a context-needing decode,
    and counting it as a hit would silently skip the context derivation.
    """

    def __init__(self, max_nbytes: int = 256 * 1024 * 1024) -> None:
        if max_nbytes <= 0:
            raise ValueError(f"max_nbytes must be positive, got {max_nbytes}")
        self.max_nbytes = int(max_nbytes)
        self._entries: "OrderedDict[Hashable, Tuple[np.ndarray, object]]" = (
            OrderedDict()
        )
        self._nbytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self, key: Hashable, *, want_context: bool = False
    ) -> Optional[Tuple[np.ndarray, object]]:
        """Look up ``(values, context)``; None on miss.  Bumps LRU order."""

        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (want_context and entry[1] is None):
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: Hashable, values: np.ndarray, context: object = None) -> None:
        """Insert (or upgrade) an entry, evicting LRU entries over budget.

        An existing entry is only replaced when the new one adds the
        context — otherwise the resident entry (already LRU-fresh) wins.
        Values larger than the whole budget are not cached.
        """

        values = np.asarray(values)
        if values.nbytes > self.max_nbytes:
            return
        frozen = values.view()
        frozen.setflags(write=False)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if context is None or existing[1] is not None:
                    return
                self._nbytes -= existing[0].nbytes
                del self._entries[key]
            self._entries[key] = (frozen, context)
            self._nbytes += frozen.nbytes
            while self._nbytes > self.max_nbytes and self._entries:
                _, (old_values, _) = self._entries.popitem(last=False)
                self._nbytes -= old_values.nbytes
                self._evictions += 1

    def counters(self) -> Dict[str, int]:
        """Snapshot of hit/miss/eviction/occupancy counters."""

        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "nbytes": self._nbytes,
                "max_nbytes": self.max_nbytes,
            }
