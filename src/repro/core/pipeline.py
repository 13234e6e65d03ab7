"""Experiment sweeps over datasets, compressors and error bounds.

:func:`run_experiment` is the workhorse the figure drivers and benchmarks
use: it instantiates a named dataset from the registry (a list of labelled
2D fields or 3D volumes), measures every field under every (compressor, bound) pair and
returns the flat list of :class:`repro.core.experiment.CompressionRecord`.
Field-level work is embarrassingly parallel and can be distributed over a
process pool via :class:`repro.utils.parallel.ParallelConfig`.  A sweep
measures every field it is given; nothing is memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.core.experiment import CompressionRecord, ExperimentConfig, measure_field
from repro.datasets.registry import DatasetRegistry, default_registry
from repro.utils.parallel import ParallelConfig, parallel_map
from repro.utils.rng import SeedLike

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "run_experiment_on_fields",
    "records_to_table",
]


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
    """Top-level helper so the work item pickles for process pools."""

    dataset, label, field, config = task
    return measure_field(field, dataset=dataset, field_label=label, config=config)


def run_experiment_on_fields(
    fields: Sequence[Tuple[str, np.ndarray]],
    *,
    dataset: str,
    config: ExperimentConfig | None = None,
    parallel: ParallelConfig | None = None,
    cache: Literal[False, None] = None,
) -> ExperimentResult:
    """Measure an explicit list of labelled 2D fields or 3D volumes.

    Every field is measured, repeats included.  ``cache`` accepts only
    ``None`` or ``False``: nothing is memoized.
    """

    if cache is not None and cache is not False:
        raise TypeError(f"cache must be None or False, got {cache!r}")
    config = config or ExperimentConfig()
    tasks = [(dataset, label, np.asarray(field), config) for label, field in fields]
    groups = parallel_map(_measure_one, tasks, parallel)
    records = tuple(record for group in groups for record in group)
    return ExperimentResult(dataset=dataset, config=config, records=records)


def run_experiment(
    dataset: str,
    *,
    config: ExperimentConfig | None = None,
    registry: DatasetRegistry | None = None,
    seed: SeedLike = 0,
    parallel: ParallelConfig | None = None,
) -> ExperimentResult:
    """Run a full sweep on a named dataset from the registry.

    Parameters
    ----------
    dataset:
        Registry key (``"gaussian-single"``, ``"gaussian-multi"``,
        ``"miranda"``, ``"miranda-volume"`` with the default registry).
    config:
        Sweep configuration (compressors, bounds, statistics toggles).
    registry:
        Dataset registry; defaults to :func:`repro.datasets.registry.default_registry`.
    seed:
        Seed used to instantiate the dataset (field realisations).
    parallel:
        Optional process-pool configuration for the per-field work.
    """

    registry = registry or default_registry()
    fields = registry.create(dataset, seed=seed)
    return run_experiment_on_fields(
        fields, dataset=dataset, config=config, parallel=parallel
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
