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

**The shared-array protocol.**  Pickling whole ndarrays across the
process boundary doubles the memory traffic of every tile/chunk job: the
submitting side serialises the array, the pipe copies it, the worker
deserialises it.  :class:`SharedArraySession` instead places the bulk
data in :mod:`multiprocessing.shared_memory` segments; what crosses the
boundary is a :class:`SharedArraySpec` descriptor — ``(name, shape,
dtype)`` plus a region — and workers read their slice in place with
:func:`read_shared` / write results in place with :func:`write_shared`.
The session owns the segment lifecycle: segments are unlinked on success,
on worker exceptions and on ``KeyboardInterrupt`` (the ``with`` block's
``finally``), so ``/dev/shm`` never accumulates leaked segments.

Direct :class:`~multiprocessing.shared_memory.SharedMemory` construction
outside this module is a lint finding (``worker-boundary``): the session
is the single enforcement point for naming, cleanup and fallback rules.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "WorkerPool",
    "SharedArraySpec",
    "SharedArraySession",
    "read_shared",
    "write_shared",
    "read_region",
    "write_region",
    "shared_memory_available",
    "use_shared_arrays",
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


# ---------------------------------------------------------------------------
# Shared-array protocol
# ---------------------------------------------------------------------------

#: Segment names are ``repro-shm-<pid>-<counter>`` — unique per creating
#: process (only the submitting side ever creates segments), and
#: recognisable so tests can assert /dev/shm holds no leaked segments.
SEGMENT_PREFIX = "repro-shm"
_segment_counter = itertools.count()

_shared_memory_probe: Optional[bool] = None


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_segment_counter)}"


def _new_segment(size: int):
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(
        create=True, size=size, name=_segment_name()
    )


def _attach_segment(name: str):
    from multiprocessing import shared_memory

    try:
        # ``track=False`` (3.13+) keeps attach-only processes out of the
        # resource tracker entirely; on older interpreters the pooled
        # workers share the submitting process's tracker, so the
        # creator's unlink() still unregisters the name.
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def shared_memory_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` works here (probed once).

    False on platforms without a usable shared-memory filesystem; tiled
    runs then stay serial (see :class:`repro.utils.schedule.WaveExecutor`).
    """

    global _shared_memory_probe
    if _shared_memory_probe is None:
        try:
            segment = _new_segment(1)
            segment.close()
            segment.unlink()
            _shared_memory_probe = True
        except (ImportError, OSError):
            _shared_memory_probe = False
    return _shared_memory_probe


def use_shared_arrays(config: Optional[ParallelConfig]) -> bool:
    """Whether a run under ``config`` should use the shared-array protocol.

    True only for real process pools (``workers > 1``) with working shared
    memory: serial runs and thread pools see the caller's memory directly,
    and a platform without shared memory runs tiled work serially.
    """

    return (
        config is not None
        and config.workers > 1
        and config.use_processes
        and shared_memory_available()
    )


def _close_segment(segment) -> None:
    try:
        segment.close()
    except BufferError:
        # A view into the segment is still alive in this process; the
        # mapping is released when the view is collected.  The unlink
        # below still removes the /dev/shm entry.
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable descriptor of a shared-memory-backed ndarray.

    This — not the array — is what crosses the worker boundary: workers
    :func:`read_shared` their region in place and :func:`write_shared`
    results back, so the only payload returned through the pickle channel
    is the (small) compressed bytes.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


class SharedArraySession:
    """Owns the shared-memory segments of one parallel run.

    ``with SharedArraySession() as session:`` guarantees every segment
    created through :meth:`share` / :meth:`allocate` is closed *and
    unlinked* when the block exits — on success, on a propagating worker
    exception, and on ``KeyboardInterrupt`` alike.  Callers must copy any
    data they need out of session-backed views before the block exits.
    """

    def __init__(self) -> None:
        self._segments: List = []

    # -- allocation ------------------------------------------------------
    def allocate(
        self, shape: Sequence[int], dtype="float64"
    ) -> Tuple[SharedArraySpec, np.ndarray]:
        """New zero-initialised shared array; returns (spec, writable view)."""

        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes <= 0:
            raise ValueError(f"cannot share an empty array of shape {shape}")
        segment = _new_segment(nbytes)
        self._segments.append(segment)
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        return SharedArraySpec(segment.name, shape, str(dtype)), view

    def share(self, array: np.ndarray) -> SharedArraySpec:
        """Copy ``array`` into a new shared segment; returns its spec."""

        array = np.asarray(array)
        spec, view = self.allocate(array.shape, array.dtype)
        view[...] = array
        del view
        return spec

    # -- lifecycle -------------------------------------------------------
    def release(self, spec: SharedArraySpec) -> None:
        """Close and unlink one segment before the session ends."""

        for segment in self._segments:
            if segment.name == spec.name:
                self._segments.remove(segment)
                _close_segment(segment)
                return

    def close(self) -> None:
        """Close and unlink every segment this session created."""

        segments, self._segments = self._segments, []
        for segment in segments:
            _close_segment(segment)

    def __enter__(self) -> "SharedArraySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_shared(spec: SharedArraySpec, region=None) -> np.ndarray:
    """Copy ``spec``'s array (or a region of it) out of shared memory.

    ``region`` is a tuple of slices/ints in the array's coordinates
    (``None`` reads everything).  Returns a fresh C-contiguous array that
    owns its data — safe to hold after the segment is unlinked.
    """

    segment = _attach_segment(spec.name)
    try:
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
        values = view[region].copy() if region is not None else view.copy()
        del view
    finally:
        segment.close()
    return values


def write_shared(spec: SharedArraySpec, region, values: np.ndarray) -> None:
    """Write ``values`` into ``region`` of the shared array ``spec``.

    The in-place analogue of returning an ndarray through the pickle
    channel: workers write their reconstruction directly where the
    submitting side will read it.
    """

    segment = _attach_segment(spec.name)
    try:
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
        if region is None:
            view[...] = values
        else:
            view[region] = values
        del view
    finally:
        segment.close()


def read_region(source, region) -> np.ndarray:
    """``region`` of a task source, C-contiguous.

    ``source`` is a :class:`SharedArraySpec` (process workers: the region
    is copied out of the segment) or the in-process array itself (serial
    runs and thread workers, which share the caller's memory).
    """

    if isinstance(source, SharedArraySpec):
        return read_shared(source, region)
    return np.ascontiguousarray(source[region])


def write_region(sink, region, values: np.ndarray) -> None:
    """Write ``values`` into ``region`` of a task sink (spec or array)."""

    if isinstance(sink, SharedArraySpec):
        write_shared(sink, region, values)
    else:
        sink[region] = values
