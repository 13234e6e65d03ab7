"""The per-layer ledger: span wrappers at each layer's lookup sites.

A traced run wraps every layer's public entry points with the program's
own tracer (:func:`repro.obs.trace.traced`), at the place callers look
them up: ``repro.compressors.base.huffman_decode`` is wrapped in
``compressors.base``, where ``LosslessBackend`` finds it, and class
methods are wrapped on the class.  No file of the program changes; the
wrappers are removed again on exit.  Pool workers inherit the wrappers
through fork, and their spans come back through the existing
``worker_capture`` / ``adopt`` path.

Layer names are module names.  For a span name, ``calls`` counts spans
not nested in a span of the same name, ``busy_s`` sums their inclusive
wall time, and ``self_s`` is each span's time minus the part of its
interval covered by its nearest layer descendants (an interval union, so
concurrent worker spans are not counted twice).  Counts and times are
normalised per workload iteration (see ``workloads``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs import trace

#: Category of every wrapper span; program spans keep their own categories.
CATEGORY = "layer"
#: Program spans that also count as layer boundaries.
PROGRAM_LAYER_SPANS = ("serve.request",)

#: ``(span name, module, attributes)``: functions wrapped in the module
#: their callers read them from.
FUNCTIONS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("stats", "repro.core.experiment",
     ("estimate_variogram_range", "std_local_variogram_range", "std_local_svd_truncation")),
    ("stats", "repro.stats.variogram_models", ("estimate_variogram_range",)),
    ("stats", "repro.stats.variogram3d", ("estimate_variogram_range_3d",)),
    ("core.experiment", "repro.core.pipeline", ("run_experiment_on_fields",)),
    ("core.regression", "repro.core.regression", ("fit_log_regression",)),
    ("compressors.predict", "repro.compressors.blocks",
     ("lorenzo_residuals", "lorenzo_reconstruct", "fit_block_planes", "plane_predictions",
      "select_block_modes")),
    ("compressors.quantize", "repro.compressors.blocks",
     ("quantize_to_grid", "quantize_plane_coefficients", "dequantize_plane_coefficients",
      "split_unpredictable", "merge_unpredictable")),
    ("compressors.quantize", "repro.compressors.zfp", ("block_exponents", "quantize_block_coefficients")),
    ("compressors.quantize", "repro.compressors.mgard", ("quantize_to_grid",)),
    ("compressors.transform", "repro.compressors.zfp", ("forward_block_transform", "inverse_block_transform")),
    ("compressors.transform", "repro.compressors.mgard", ("decompose", "prolong")),
    ("compressors.halo_correction", "repro.compressors.blocks", ("halo_lorenzo_correction",)),
    ("encoding.huffman_decode", "repro.compressors.base", ("huffman_decode",)),
    ("encoding.huffman_decode", "repro.encoding.huffman", ("huffman_decode_with_code",)),
    ("encoding.table_build", "repro.encoding.huffman", ("canonical_code_from_counts",)),
    ("volumes.compress", "repro.volumes.pipeline", ("compress_volume",)),
    ("volumes.decode", "repro.volumes.pipeline", ("decompress_volume",)),
)

_CODECS = (
    "repro.compressors.sz:SZCompressor",
    "repro.compressors.zfp:ZFPCompressor",
    "repro.compressors.mgard:MGARDCompressor",
)
_BACKEND = ("repro.compressors.base:LosslessBackend",)
_ARRAY_STORE = ("repro.store.array_store:ArrayStore",)

#: ``(span name, classes, methods)``: methods wrapped on the class.
METHODS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("compressors.encode", _CODECS, ("compress",)),
    ("compressors.decode", _CODECS, ("decompress", "decompress_with_context")),
    ("encoding.encode", _BACKEND, ("encode_symbols",)),
    ("encoding.decode", _BACKEND, ("decode_symbols",)),
    ("store.open", ("repro.store.snapshot:StoreSnapshot",) + _ARRAY_STORE, ("open",)),
    ("store.read", ("repro.store.snapshot:StoreSnapshot",), ("read",)),
    ("store.append", _ARRAY_STORE, ("append",)),
    ("store.compact", _ARRAY_STORE, ("compact",)),
)


def _table_build(fn):
    """Every Huffman code-length build, tagged with a digest of its counts."""

    @functools.wraps(fn)
    def wrapper(counts):
        digest = hashlib.sha1(np.ascontiguousarray(counts).tobytes()).hexdigest()[:16]
        with trace.span("encoding.table_build", CATEGORY, counts=digest):
            return fn(counts)

    return wrapper


def _pooled_map(fn):
    """``WorkerPool.map`` spans, for pools that actually have workers.

    A serial pool maps inline in the caller, which is the caller's own
    time, not the pool's.
    """

    @functools.wraps(fn)
    def wrapper(self, func, items):
        if self.config.workers <= 1:
            return fn(self, func, items)
        with trace.span("parallel.map", CATEGORY, workers=self.config.workers):
            return fn(self, func, items)

    return wrapper


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def _patch(undo: List, owner, attr: str, decorate) -> None:
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        replacement = classmethod(decorate(original.__func__))
    else:
        replacement = decorate(original)
    setattr(owner, attr, replacement)
    undo.append((owner, attr, original))


@contextlib.contextmanager
def wrapped(enabled: bool = True):
    """Install every layer wrapper for the duration of the block."""

    undo: List = []
    try:
        if enabled:
            for name, module, attrs in FUNCTIONS:
                owner = importlib.import_module(module)
                for attr in attrs:
                    _patch(undo, owner, attr, trace.traced(name, CATEGORY))
            for name, classes, methods in METHODS:
                for path in classes:
                    owner = _resolve(path)
                    for attr in methods:
                        _patch(undo, owner, attr, trace.traced(name, CATEGORY))
            _patch(undo, importlib.import_module("repro.encoding.huffman"),
                   "_code_lengths_array", _table_build)
            _patch(undo, _resolve("repro.utils.parallel:WorkerPool"), "map", _pooled_map)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def load_span_tuples(path) -> List[trace.Span]:
    """Spans a server child dumped with ``Tracer.export_tuples``."""

    with open(path, encoding="utf-8") as handle:
        return [trace.Span.from_tuple(tuple(raw)) for raw in json.load(handle)]


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def _is_layer(record: trace.Span) -> bool:
    return record.category == CATEGORY or record.name in PROGRAM_LAYER_SPANS


def _covered(parent: trace.Span, children: Iterable[trace.Span]) -> float:
    """Length of the union of the children's intervals inside the parent's."""

    lo_bound, hi_bound = parent.start, parent.start + parent.duration
    intervals = sorted(
        (max(c.start, lo_bound), min(c.start + c.duration, hi_bound)) for c in children
    )
    total = 0.0
    current_lo = current_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        total += current_hi - current_lo
    return total


class _Ledger:
    """Per-name calls / busy / self totals over the in-window spans."""

    def __init__(self, spans: List[trace.Span], window: Tuple[float, float]) -> None:
        start, end = window
        self.spans = [s for s in spans if start <= s.start <= end]
        self.by_id = {s.span_id: s for s in self.spans}
        nearest: Dict[int, Optional[int]] = {}

        def layer_parent(record: trace.Span) -> Optional[int]:
            chain = []
            parent_id = record.parent_id
            found = None
            while parent_id is not None:
                if parent_id in nearest:
                    found = nearest[parent_id]
                    break
                parent = self.by_id.get(parent_id)
                if parent is None:
                    break
                if _is_layer(parent):
                    found = parent_id
                    break
                chain.append(parent_id)
                parent_id = parent.parent_id
            for link in chain:
                nearest[link] = found
            return found

        layers = [s for s in self.spans if _is_layer(s)]
        self.parent = {s.span_id: layer_parent(s) for s in layers}
        children: Dict[Optional[int], List[trace.Span]] = defaultdict(list)
        for record in layers:
            children[self.parent[record.span_id]].append(record)
        self.roots = children[None]
        self.self_time = {
            s.span_id: s.duration - _covered(s, children[s.span_id]) for s in layers
        }
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        for record in layers:
            self.self_s[record.name] += self.self_time[record.span_id]
            if not self._nested_in_same_name(record):
                self.calls[record.name] += 1
                self.busy[record.name] += record.duration

    def _nested_in_same_name(self, record: trace.Span) -> bool:
        ancestor = self.parent[record.span_id]
        while ancestor is not None:
            if self.by_id[ancestor].name == record.name:
                return True
            ancestor = self.parent[ancestor]
        return False

    def ancestors(self, record: trace.Span):
        parent_id = record.parent_id
        while parent_id is not None and parent_id in self.by_id:
            parent = self.by_id[parent_id]
            yield parent
            parent_id = parent.parent_id


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[trace.Span], measurement) -> Dict[str, float]:
    """Every per-layer metric of one traced run (``obs.tracing_overhead``
    is filled in by the caller, which also holds the untraced run)."""

    ledger = _Ledger(spans, measurement.window)
    harness = measurement.ledger
    per = 1.0 / max(1, measurement.iterations)
    calls, busy, self_s = ledger.calls, ledger.busy, ledger.self_s
    root_busy = sum(s.duration for s in ledger.roots)
    root_self = sum(ledger.self_time[s.span_id] for s in ledger.roots)

    digests = [s.args["counts"] for s in ledger.spans
               if s.name == "encoding.table_build" and "counts" in s.args]

    # Worker-side tile spans of the pooled (parallel) legs only: the
    # serial legs run the same traced workers inline.
    worker_busy = 0.0
    for record in ledger.spans:
        if record.name in ("volume.tile", "volume.tile.decode") and any(
            str(a.args.get("cell", "")).endswith(".parallel") for a in ledger.ancestors(record)
        ):
            worker_busy += record.duration
    workers = harness.get("workers", 1)
    map_busy = busy["parallel.map"]

    metrics = {
        "stats.calls": calls["stats"] * per,
        "stats.busy_s": busy["stats"] * per,
        "stats.share": _ratio(busy["stats"], root_busy),
        "core.records": harness.get("records", 0) * 1.0,
        "core.self_s": (self_s["core.experiment"] + self_s["core.regression"]) * per,
        "compressors.bound_used": harness.get("bound_used", 0.0),
        "compressors.container.self_s": (
            self_s["compressors.encode"] + self_s["compressors.decode"]
        ) * per,
        "encoding.decode.share": _ratio(busy["encoding.decode"], busy["compressors.decode"]),
        "encoding.table_build.distinct_fraction": _ratio(len(set(digests)), len(digests)),
        "volumes.tiles": harness.get("tiles", 0) * per,
        "volumes.waves": sum(1 for s in ledger.spans if s.name == "volume.wave") * per,
        "parallel.worker_busy_s": worker_busy * per,
        "parallel.utilization": _ratio(worker_busy, workers * map_busy),
        "parallel.overhead_s": (map_busy - worker_busy / workers) * per if map_busy else 0.0,
        "parallel.compress_speedup": harness.get("compress_speedup", 0.0),
        "parallel.decode_speedup": harness.get("decode_speedup", 0.0),
        "store.chunks_decoded_per_read": _ratio(harness.get("chunks_decoded", 0), harness.get("reads", 0)),
        "store.decode_amplification": harness.get("decode_amplification", 0.0),
        "store.bytes_written_per_user_byte": harness.get("bytes_written_per_user_byte", 0.0),
        "store.space_amplification": harness.get("space_amplification", 0.0),
        "serve.client_overhead_s": (
            (harness["client_latency_s"] - busy["serve.request"]) * per
            if "client_latency_s" in harness else 0.0
        ),
        "serve.hot_cache.hit_ratio": _ratio(harness.get("hot_cache_hits", 0), harness.get("hot_cache_lookups", 0)),
        "serve.hot_cache.evictions": harness.get("hot_cache_evictions", 0) * per,
        "serve.coalesced_fraction": _ratio(harness.get("coalesced", 0), harness.get("reads", 0)),
        "serve.gate.peak": harness.get("gate_peak", 0) * 1.0,
        "obs.tracing_overhead": 0.0,
        "obs.span_coverage": 1.0 - _ratio(root_self, root_busy),
    }
    for name in ("compressors.encode", "compressors.decode", "encoding.encode", "encoding.decode",
                 "encoding.table_build", "parallel.map", "store.open", "store.read",
                 "store.append", "store.compact"):
        metrics[f"{name}.calls"] = calls[name] * per
        metrics[f"{name}.busy_s"] = busy[name] * per
    for name in ("compressors.predict", "compressors.quantize", "compressors.transform",
                 "volumes.compress", "volumes.decode", "serve.request"):
        metrics[f"{name}.self_s"] = self_s[name] * per
    for name in ("compressors.halo_correction", "encoding.huffman_decode", "serve.request"):
        metrics[f"{name}.busy_s"] = busy[name] * per
    return metrics
