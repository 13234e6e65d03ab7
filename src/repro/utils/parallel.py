"""Parallel execution helpers for embarrassingly parallel sweeps.

The experiments in this repository are sweeps over independent
(field, compressor, error-bound) combinations — exactly the workload shape
the original study ran on a cluster node with 64 cores.  We expose a small
wrapper around :mod:`concurrent.futures` that

* preserves input ordering in the results,
* degrades gracefully to serial execution for ``workers <= 1`` (useful in
  tests and when the work items are tiny, where pool overhead dominates),
* runs process pools (CPU-bound NumPy work that releases the GIL only
  partially),
* honours the ``MP_START_METHOD`` environment variable (``fork`` /
  ``spawn`` / ``forkserver``) so CI can exercise worker code under spawn,
  where fork's copy-on-write cannot paper over pickling bugs.

Process pools are shared: one pool per ``(workers, start method)`` lives
for the life of the process, started on the first non-empty map and
reused by every later map with that key, so a sweep of many short calls
pays worker start-up (and a fresh worker's page faults) once.  Workers
start once, at first use: module state patched after that is not seen
by them.  :func:`shutdown_pools` joins every shared pool's workers; it
runs at interpreter exit, and a forked child starts with no pools.

Tasks carry their input arrays and workers return their output arrays
through the executor's pickle channel, so serial runs and process pools
run the same worker code on the same values.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "WorkerPool",
    "shutdown_pools",
    "start_method",
    "ENV_START_METHOD",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable selecting the multiprocessing start method for the
#: process pools created here (empty/unset = the platform default).
ENV_START_METHOD = "MP_START_METHOD"


def start_method() -> Optional[str]:
    """The start method requested via ``MP_START_METHOD``, if any.

    Returns ``None`` when the variable is unset or empty (the platform
    default applies); raises :class:`ValueError` for a method the current
    platform does not offer, so a typo in a CI matrix fails loudly
    instead of silently testing the wrong thing.
    """

    method = os.environ.get(ENV_START_METHOD, "").strip()
    if not method:
        return None
    if method not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"{ENV_START_METHOD}={method!r} is not available on this platform "
            f"(choices: {multiprocessing.get_all_start_methods()})"
        )
    return method


#: The shared process pools, by ``(workers, start method)``.
_POOLS: Dict[Tuple[int, Optional[str]], ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()
#: Pools a forked child inherited.  They stay referenced: collecting one
#: would take a lock and signal a pipe that belong to the parent's pool.
_INHERITED: List[ProcessPoolExecutor] = []


def _shared_process_pool(workers: int) -> ProcessPoolExecutor:
    method = start_method()
    with _POOLS_LOCK:
        pool = _POOLS.get((workers, method))
        if pool is None:
            pool = _POOLS[(workers, method)] = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context(method)
            )
        return pool


def _discard(pool: ProcessPoolExecutor) -> None:
    """Forget a broken shared pool, so the next map starts a new one."""

    with _POOLS_LOCK:
        for key in [key for key, shared in _POOLS.items() if shared is pool]:
            del _POOLS[key]
    pool.shutdown(wait=True)


def shutdown_pools() -> None:
    """Join every shared process pool's workers and forget the pools.

    Runs at interpreter exit.  A later map starts a new pool.
    """

    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def _forget_pools_in_child() -> None:
    # A forked child has none of its parent's pool threads or workers.
    # The lock is replaced, not taken: another thread may have held it
    # at the fork.
    global _POOLS, _POOLS_LOCK
    _INHERITED.extend(_POOLS.values())
    _POOLS = {}
    _POOLS_LOCK = threading.Lock()


atexit.register(shutdown_pools)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools_in_child)


@dataclass(frozen=True)
class ParallelConfig:
    """Configuration of a parallel map.

    Attributes
    ----------
    workers:
        Number of worker processes.  ``1`` (default) runs serially in the
        calling process.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class WorkerPool:
    """An executor honouring a :class:`ParallelConfig`, for a ``with`` block.

    :meth:`map` behaves exactly like :func:`parallel_map` (ordered
    results, worker exceptions propagate), so wavefront schedules that
    submit many small batches back to back can hold one pool for all of
    them.  It maps on the shared pool for its worker count and start
    method, which outlives the block.  When a worker dies, the map raises
    :class:`~concurrent.futures.process.BrokenProcessPool` and the next
    map starts a new pool.

    A pool over a serial config (``workers == 1`` or ``None``) has no
    executor at all and maps inline, so callers need no special-casing.
    The executor is taken on the first non-empty :meth:`map`, so a run
    that turns out fully memoized never starts a pool.
    """

    def __init__(self, config: Optional[ParallelConfig]) -> None:
        self.config = config or ParallelConfig()
        self._executor: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self._executor = None

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items_list: Sequence[T] = list(items)
        if not items_list:
            return []
        if self.config.workers <= 1:
            return [func(item) for item in items_list]
        # Looked up on every map: a broken or shut-down pool has been
        # replaced by then.
        self._executor = _shared_process_pool(self.config.workers)
        try:
            return list(self._executor.map(func, items_list))
        except BrokenProcessPool:
            _discard(self._executor)
            raise


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    config: ParallelConfig | None = None,
) -> List[R]:
    """Apply ``func`` to every item, optionally in parallel, preserving order.

    ``func`` and the items must be picklable when ``workers > 1``.
    Exceptions raised by workers propagate to the caller.
    """

    with WorkerPool(config) as pool:
        return pool.map(func, items)
