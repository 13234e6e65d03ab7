"""Parallel execution helpers for embarrassingly parallel sweeps.

The experiments in this repository are sweeps over independent
(field, compressor, error-bound) combinations — exactly the workload shape
the original study ran on a cluster node with 64 cores.  We expose a small
wrapper around :mod:`concurrent.futures` that

* preserves input ordering in the results,
* degrades gracefully to serial execution for ``workers <= 1`` (useful in
  tests and when the work items are tiny, where pool overhead dominates),
* supports both process pools (CPU-bound NumPy work that releases the GIL
  only partially) and thread pools (cheap tasks, avoids pickling),
* honours the ``MP_START_METHOD`` environment variable (``fork`` /
  ``spawn`` / ``forkserver``) so CI can exercise worker code under spawn,
  where fork's copy-on-write cannot paper over pickling bugs.

Tasks carry their input arrays and workers return their output arrays
through the executor's pickle channel, so serial runs, thread pools and
process pools run the same worker code on the same values.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "WorkerPool",
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


def _process_pool(workers: int) -> ProcessPoolExecutor:
    method = start_method()
    if method is None:
        return ProcessPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context(method)
    )


@dataclass(frozen=True)
class ParallelConfig:
    """Configuration of a parallel map.

    Attributes
    ----------
    workers:
        Number of worker processes/threads.  ``1`` (default) runs serially
        in the calling process.
    use_processes:
        Select :class:`~concurrent.futures.ProcessPoolExecutor` (default)
        versus :class:`~concurrent.futures.ThreadPoolExecutor`.
    """

    workers: int = 1
    use_processes: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class WorkerPool:
    """A reusable executor honouring a :class:`ParallelConfig`.

    ``parallel_map`` creates (and tears down) a pool per call, which is
    fine for one big batch but wasteful for wavefront schedules that
    submit many small batches back to back — process pool startup would
    be paid once per wave.  A ``WorkerPool`` keeps one executor alive for
    the duration of a ``with`` block; :meth:`map` behaves exactly like
    :func:`parallel_map` (ordered results, worker exceptions propagate).

    A pool over a serial config (``workers == 1`` or ``None``) has no
    executor at all and maps inline, so callers need no special-casing.
    The executor is created lazily on the first non-empty :meth:`map`, so
    a run that turns out fully memoized never pays pool startup.
    """

    def __init__(self, config: Optional[ParallelConfig]) -> None:
        self.config = config or ParallelConfig()
        self._executor: Optional[Executor] = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _ensure_executor(self) -> Optional[Executor]:
        if self._executor is None and self.config.workers > 1:
            if self.config.use_processes:
                self._executor = _process_pool(self.config.workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.workers
                )
        return self._executor

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items_list: Sequence[T] = list(items)
        if not items_list:
            return []
        executor = self._ensure_executor()
        if executor is None:
            return [func(item) for item in items_list]
        return list(executor.map(func, items_list))


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    config: ParallelConfig | None = None,
) -> List[R]:
    """Apply ``func`` to every item, optionally in parallel, preserving order.

    ``func`` and the items must be picklable when ``use_processes=True`` and
    ``workers > 1``.  Exceptions raised by workers propagate to the caller.
    """

    with WorkerPool(config) as pool:
        return pool.map(func, items)

