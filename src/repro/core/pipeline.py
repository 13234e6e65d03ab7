"""Experiment sweeps over datasets, compressors and error bounds.

:func:`run_experiment` is the workhorse the figure drivers and benchmarks
use: it instantiates a named dataset from the registry (a list of labelled
2D fields), measures every field under every (compressor, bound) pair and
returns the flat list of :class:`repro.core.experiment.CompressionRecord`.
Field-level work is embarrassingly parallel and can be distributed over a
process pool via :class:`repro.utils.parallel.ParallelConfig`.

Memoization is the caller's choice: a sweep measures every field it is
given.  A caller that expects repeated cells passes its own
:class:`ExperimentCache`, keyed by the field's content hash and the sweep
configuration, and owns its lifetime.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.experiment import CompressionRecord, ExperimentConfig, measure_field
from repro.datasets.registry import DatasetRegistry, default_registry
from repro.utils.parallel import ParallelConfig, parallel_map
from repro.utils.rng import SeedLike

__all__ = [
    "ExperimentCache",
    "ExperimentResult",
    "memoized_map",
    "run_experiment",
    "run_experiment_on_fields",
    "records_to_table",
]


class ExperimentCache:
    """LRU memo of per-field measurement results.

    Keys combine the dataset name, field label, a SHA-1 of the field's raw
    bytes (plus ndim/shape/dtype) and the repr of the frozen
    :class:`~repro.core.experiment.ExperimentConfig`, so a hit is only
    possible for a byte-identical field measured under an identical sweep
    configuration.  Every key component is length-prefixed before hashing,
    which makes the key injective in its parts: two entries can only
    collide if every component matches, never because adjacent components
    happen to concatenate identically.  In particular a 2D field and a 3D
    volume with the same raw bytes (e.g. a ``(64, 64)`` plane and a
    ``(16, 16, 16)`` cube of zeros) always key differently.

    Values are the 1-tuples :func:`memoized_map` stores: for the
    experiment sweep, each wraps the records
    :func:`repro.core.experiment.measure_field` produced for one field
    (frozen dataclasses, safe to share between callers).  ``hits`` /
    ``misses`` / ``evictions`` count lookups that were served, lookups
    that were not, and entries dropped by the LRU bound;
    ``in_call_duplicates`` counts items that :func:`memoized_map`
    resolved from an earlier item of the same call.
    :meth:`counters` snapshots them.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.in_call_duplicates = 0

    @staticmethod
    def key(
        dataset: str, label: str, field: np.ndarray, config: ExperimentConfig
    ) -> str:
        field = np.ascontiguousarray(field)
        digest = hashlib.sha1()
        parts = (
            str(field.ndim),
            repr(field.shape),
            str(field.dtype),
            str(dataset),
            str(label),
            repr(config),
        )
        for part in parts:
            raw = part.encode()
            digest.update(len(raw).to_bytes(8, "little"))
            digest.update(raw)
        digest.update(field.nbytes.to_bytes(8, "little"))
        digest.update(field.tobytes())
        return digest.hexdigest()

    def get(self, key: str) -> Optional[tuple]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: Sequence) -> None:
        self._entries[key] = tuple(value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def counters(self) -> Dict[str, int]:
        """Snapshot of the lookup counters plus current size."""

        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "in_call_duplicates": self.in_call_duplicates,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.in_call_duplicates = 0

    def __len__(self) -> int:
        return len(self._entries)


#: The ``cache=`` argument of the memoizing entry points: an
#: :class:`ExperimentCache` to memoize through, or ``None`` / ``False`` for
#: no memo.
CacheArg = Union[ExperimentCache, Literal[False], None]


def memoized_map(items, key_fn, compute_many, cache: CacheArg):
    """Bulk map through an :class:`ExperimentCache`, with in-call dedup.

    The shared memoization protocol of the experiment sweep and the tiled
    volume pipeline: every item is keyed (``key_fn(item) -> str``),
    served from ``cache`` on a hit, and computed otherwise —
    ``compute_many(pending_items)`` returns results aligned with its
    argument, so the caller decides how the batch runs (e.g. a process
    pool).  Items repeating a key *within the call* are computed once and
    resolved from the in-call owner, not the cache: LRU eviction may
    already have dropped the owner's entry when the call finishes.

    With ``cache`` ``None`` or ``False`` every item is computed.  Returns
    the results aligned with ``items``; the cache counts the hits,
    misses, evictions and in-call duplicates.  Cached values are wrapped
    in 1-tuples.
    """

    if cache is None or cache is False:
        return list(compute_many(list(items)))
    if not isinstance(cache, ExperimentCache):
        raise TypeError(
            f"cache must be an ExperimentCache, None or False, got {cache!r}"
        )

    keys = [key_fn(item) for item in items]
    results = [None] * len(keys)
    first_with_key: Dict[str, int] = {}
    duplicates: List[int] = []
    pending: List[int] = []
    for idx, key in enumerate(keys):
        if key in first_with_key:
            # An earlier item of this very call owns the key; the cache
            # cannot have it yet, so skip the (counted) lookup.
            duplicates.append(idx)
            continue
        hit = cache.get(key)
        if hit is not None:
            results[idx] = hit[0]
        else:
            first_with_key[key] = idx
            pending.append(idx)
    if pending:
        fresh = compute_many([items[idx] for idx in pending])
        for idx, value in zip(pending, fresh):
            results[idx] = value
            cache.put(keys[idx], (value,))
    for idx in duplicates:
        results[idx] = results[first_with_key[keys[idx]]]
    cache.in_call_duplicates += len(duplicates)
    return results


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one sweep: the records plus the configuration used."""

    dataset: str
    config: ExperimentConfig
    records: Tuple[CompressionRecord, ...]

    def filter(
        self,
        *,
        compressor: Optional[str] = None,
        error_bound: Optional[float] = None,
    ) -> List[CompressionRecord]:
        """Records matching the given compressor and/or error bound."""

        out = list(self.records)
        if compressor is not None:
            out = [r for r in out if r.compressor == compressor]
        if error_bound is not None:
            out = [r for r in out if np.isclose(r.error_bound, error_bound)]
        return out

    @property
    def compressors(self) -> List[str]:
        return sorted({r.compressor for r in self.records})

    @property
    def error_bounds(self) -> List[float]:
        return sorted({r.error_bound for r in self.records})


def _measure_one(task) -> List[CompressionRecord]:
    """Top-level helper so the work item pickles for process pools.

    3D fields route through the tiled volume pipeline (native volumetric
    compression, 3D variogram statistic); 2D fields take the paper's
    per-slice measurement path.
    """

    dataset, label, field, config = task
    if np.asarray(field).ndim == 3:
        from repro.volumes.pipeline import measure_volume_field

        return measure_volume_field(
            field, dataset=dataset, field_label=label, config=config
        )
    return measure_field(field, dataset=dataset, field_label=label, config=config)


def run_experiment_on_fields(
    fields: Sequence[Tuple[str, np.ndarray]],
    *,
    dataset: str,
    config: ExperimentConfig | None = None,
    parallel: ParallelConfig | None = None,
    cache: CacheArg = None,
) -> ExperimentResult:
    """Measure an explicit list of labelled fields.

    ``cache`` is an optional memo for repeated (field, config) cells: an
    :class:`ExperimentCache` serves earlier results and measures a field
    repeated within the call once; ``None`` (default) or ``False``
    measures every field.
    """

    config = config or ExperimentConfig()
    tasks = [(dataset, label, np.asarray(field), config) for label, field in fields]
    groups = memoized_map(
        tasks,
        lambda task: ExperimentCache.key(*task),
        lambda pending: parallel_map(_measure_one, pending, parallel),
        cache,
    )
    records = tuple(record for group in groups for record in group)
    return ExperimentResult(dataset=dataset, config=config, records=records)


def run_experiment(
    dataset: str,
    *,
    config: ExperimentConfig | None = None,
    registry: DatasetRegistry | None = None,
    seed: SeedLike = 0,
    parallel: ParallelConfig | None = None,
    cache: CacheArg = None,
) -> ExperimentResult:
    """Run a full sweep on a named dataset from the registry.

    Parameters
    ----------
    dataset:
        Registry key (``"gaussian-single"``, ``"gaussian-multi"``,
        ``"miranda"`` with the default registry).
    config:
        Sweep configuration (compressors, bounds, statistics toggles).
    registry:
        Dataset registry; defaults to :func:`repro.datasets.registry.default_registry`.
    seed:
        Seed used to instantiate the dataset (field realisations).
    parallel:
        Optional process-pool configuration for the per-field work.
    cache:
        Memo for repeated cells; see :func:`run_experiment_on_fields`.
    """

    registry = registry or default_registry()
    fields = registry.create(dataset, seed=seed)
    return run_experiment_on_fields(
        fields, dataset=dataset, config=config, parallel=parallel, cache=cache
    )


def records_to_table(records: Iterable[CompressionRecord]) -> Dict[str, list]:
    """Column-oriented table (dict of lists) from a list of records.

    The format is deliberately plain (no pandas dependency): keys are
    column names, values are aligned lists — easy to dump as CSV or to
    convert to any dataframe library the user prefers.
    """

    rows = [record.as_dict() for record in records]
    if not rows:
        return {}
    columns: Dict[str, list] = {key: [] for key in rows[0]}
    for row in rows:
        for key in columns:
            columns[key].append(row.get(key))
    return columns
