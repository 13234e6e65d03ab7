"""The four workloads: inputs from the seed, a timed closed loop, checks.

Every input is generated from ``--seed`` (per-purpose streams derived
with :class:`numpy.random.SeedSequence`); the program only ever sees the
generated arrays.  Load comes from this one process with at most two
threads, and every loop is closed: a client sends its next request only
after the previous one answered.

Each checked operation counts once in ``attempted``; it counts as failed
on an exception, a non-2xx response, ``max|x - x_hat| > eb`` against the
original data, a parallel result that differs in any bit from the serial
one, a served region that differs in any bit from a local read, or a
non-finite regression fit.

A workload's *iteration* is the unit the per-layer ledger is normalised
by: one sweep over the four datasets, one round trip of the three codecs,
or one client request.
"""

from __future__ import annotations

import math
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import pipeline, regression
from repro.core.experiment import ExperimentConfig
from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.datasets.registry import default_registry
from repro.obs.trace import span
from repro.serve.client import StoreClient
from repro.store.array_store import ArrayStore
from repro.utils.parallel import ParallelConfig
from repro.volumes import pipeline as volumes

from benchmarks.suite.harness import ROOT, child_env

#: Relative slack of the bound check, absorbing round-off in the check itself.
TOLERANCE = 1.0 + 1e-9
#: The error bound of every volume, store and served dataset.
ERROR_BOUND = 1e-3
#: Pool size of the parallel legs: one worker per CPU of the reference machine.
WORKERS = 2


class Checks:
    """Thread-safe tally of checked operations and their failures."""

    #: Failure messages kept for the report; every failure is counted.
    KEEP = 20

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Largest ``max|x - x_hat| / eb`` seen by any bound check.
        self.bound_used = 0.0

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < self.KEEP:
                    self.failures.append(what)
        return ok

    def within_bound(self, original: np.ndarray, values: np.ndarray, eb: float) -> bool:
        if original.shape != values.shape:
            return False
        error = float(np.max(np.abs(original - values))) if original.size else 0.0
        self.note_error(error, eb)
        return error <= eb * TOLERANCE  # NaN fails

    def note_error(self, error: float, eb: float) -> None:
        if math.isfinite(error):
            with self._lock:
                self.bound_used = max(self.bound_used, error / eb)


@dataclass
class Context:
    """What a workload may use: its seed, its time, its scratch directory."""

    seed: int
    seconds: float
    tmp: Path
    corrupt: bool = False
    trace_dir: Optional[Path] = None
    checks: Checks = field(default_factory=Checks)
    _dirs: int = 0

    def seed_sequence(self, purpose: str) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, zlib.crc32(purpose.encode())])

    def rng(self, purpose: str) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence(purpose))

    def reference(self, values: np.ndarray) -> np.ndarray:
        """The array checks compare against (offset when deliberately corrupted)."""

        return values + 1.0 if self.corrupt else values

    def new_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Measurement:
    """One run's samples, end-to-end inputs and per-layer inputs."""

    latencies_s: List[float] = field(default_factory=list)
    work_bytes: float = 0.0
    busy_s: float = 0.0
    compression_ratio: float = float("nan")
    peak_rss_mb: float = float("nan")
    setup_s: float = float("nan")
    iterations: int = 0
    window: Tuple[float, float] = (0.0, 0.0)
    samples: Dict[str, object] = field(default_factory=dict)
    #: Harness-side numbers the ledger needs (see ``layers.layer_metrics``).
    ledger: Dict[str, float] = field(default_factory=dict)
    server_spans_path: Optional[Path] = None

    def end_to_end(self) -> Dict[str, float]:
        latencies = np.asarray(self.latencies_s, dtype=np.float64)
        return {
            "setup_s": self.setup_s,
            "throughput_mbps": self.work_bytes / self.busy_s / 1e6,
            "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
            "compression_ratio": self.compression_ratio,
            "peak_rss_mb": self.peak_rss_mb,
        }


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process in MB (10^6 bytes)."""

    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _batch_timings(m: Measurement, times: Dict[str, List[float]], pass_bytes: float) -> None:
    """Timings of a batch workload: one pass runs every kind of operation once.

    A kind's latency is its median over the run's passes, so a slow spell
    on the machine moves it little.  The percentiles are taken across the
    kinds, and the rate is one pass's bytes over the sum of the medians.
    """

    medians = [statistics.median(samples) for samples in times.values()]
    m.latencies_s = medians
    m.work_bytes = pass_bytes
    m.busy_s = sum(medians)


def geometric_mean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
SWEEP_DATASETS = ("gaussian-single", "gaussian-multi", "gaussian-nonstationary", "miranda")
#: The paper's configuration: sz/zfp/mgard x {1e-5, 1e-4, 1e-3, 1e-2}, all
#: three correlation statistics.
SWEEP_CONFIG = ExperimentConfig()
#: Seeded realizations of the datasets; sweep k runs realization k mod 4.
#: How long a field takes depends on its realization, so a field's median
#: over several realizations moves less from seed to seed than one.
SWEEP_REALIZATIONS = 4


class PaperSweep:
    name = "paper-sweep"

    def setup(self, ctx: Context):
        registry = default_registry()
        realizations = [
            [(name, registry.create(name, seed=ctx.seed_sequence(f"{name}-{r}")))
             for name in SWEEP_DATASETS]
            for r in range(SWEEP_REALIZATIONS)
        ]
        # Lazy imports and first-call allocations happen here, not in the loop.
        warm = generate_gaussian_field((64, 64), 8.0, seed=ctx.seed_sequence("warm"))
        pipeline.run_experiment_on_fields([("warm", warm)], dataset="warm", config=SWEEP_CONFIG, cache=False)
        moments = {}
        for r, datasets in enumerate(realizations):
            for name, fields in datasets:
                for label, values in fields:
                    reference = ctx.reference(values)
                    moments[(r, name, label)] = (float(np.var(reference)), float(np.mean(reference)))
        return {"realizations": realizations, "moments": moments}

    def teardown(self, state) -> None:
        pass

    def measure(self, state, ctx: Context) -> Measurement:
        m = Measurement()
        checks = ctx.checks
        # One operation is one field through the whole paper configuration.
        per_field: Dict[str, List[float]] = {}
        crs_by_realization: Dict[int, List[float]] = {}
        start = perf_counter()
        deadline = start + ctx.seconds
        while True:
            realization = m.iterations % SWEEP_REALIZATIONS
            crs: List[float] = []
            for name, fields in state["realizations"][realization]:
                records = []
                for label, values in fields:
                    began = perf_counter()
                    with span("bench.op", "bench", dataset=name, field=label):
                        result = pipeline.run_experiment_on_fields(
                            [(label, values)], dataset=name, config=SWEEP_CONFIG, cache=False
                        )
                    per_field.setdefault(f"{name}/{label}", []).append(perf_counter() - began)
                    records.extend(result.records)
                result = pipeline.ExperimentResult(name, SWEEP_CONFIG, tuple(records))
                with span("bench.fit", "bench", dataset=name):
                    fits = [self._fit(result, compressor, bound)
                            for compressor in SWEEP_CONFIG.compressors
                            for bound in SWEEP_CONFIG.error_bounds]
                for record in result.records:
                    variance, mean = state["moments"][(realization, name, record.field_label)]
                    metrics = record.metrics
                    checks.note_error(metrics.max_abs_error, record.error_bound)
                    checks.record(
                        metrics.max_abs_error <= record.error_bound * TOLERANCE
                        and record.statistics.field_variance == variance
                        and record.statistics.field_mean == mean
                        and math.isfinite(record.compression_ratio),
                        f"{name}/{record.field_label}/{record.compressor}@{record.error_bound:g}",
                    )
                    crs.append(record.compression_ratio)
                for ok, what in fits:
                    checks.record(ok, f"{name} fit {what}")
            m.iterations += 1
            if realization in crs_by_realization:
                checks.record(crs == crs_by_realization[realization],
                              "sweep compression ratios changed between sweeps")
            crs_by_realization[realization] = crs
            if perf_counter() >= deadline:
                break
        m.window = (start, perf_counter())
        # A sweep compresses each field once per (compressor, bound).
        first_crs = crs_by_realization[0]
        field_bytes = sum(values.nbytes for _, fields in state["realizations"][0] for _, values in fields)
        _batch_timings(m, per_field, field_bytes * len(first_crs) / len(per_field))
        m.compression_ratio = geometric_mean(first_crs)
        m.peak_rss_mb = peak_rss_mb()
        m.ledger["records"] = len(first_crs)
        m.samples = {"field_latency_s": per_field, "records_per_sweep": len(first_crs)}
        return m

    @staticmethod
    def _fit(result, compressor: str, bound: float) -> Tuple[bool, str]:
        rows = result.filter(compressor=compressor, error_bound=bound)
        what = f"{compressor}@{bound:g}"
        try:
            fit = regression.fit_log_regression(
                [row.statistics.global_variogram_range for row in rows],
                [row.compression_ratio for row in rows],
            )
        except ValueError as exc:
            return False, f"{what}: {exc}"
        return math.isfinite(fit.alpha) and math.isfinite(fit.beta), what


# ----------------------------------------------------------------------
# volume-roundtrip
# ----------------------------------------------------------------------
VOLUME_EDGE = 96
TILE_SHAPE = (32, 32, 32)
CODECS = ("sz", "zfp", "mgard")


class VolumeRoundtrip:
    name = "volume-roundtrip"

    def setup(self, ctx: Context):
        volume = generate_miranda_like_volume((VOLUME_EDGE,) * 3, seed=ctx.seed_sequence("volume"))
        # One small round trip per cell warms imports and the pool start path.
        warm = generate_miranda_like_volume((32,) * 3, seed=ctx.seed_sequence("warm"))
        for codec in CODECS:
            for parallel in (None, ParallelConfig(workers=WORKERS)):
                compressed = volumes.compress_volume(
                    warm, codec, ERROR_BOUND, tile_shape=(16,) * 3, halo=True,
                    cache=False, parallel=parallel,
                )
                volumes.decompress_volume(compressed, parallel=parallel)
        return {"volume": volume, "reference": ctx.reference(volume)}

    def teardown(self, state) -> None:
        pass

    @staticmethod
    def _cell(cells: Dict[str, List[float]], label: str, fn, *args, **kwargs):
        began = perf_counter()
        with span("bench.op", "bench", cell=label):
            out = fn(*args, **kwargs)
        cells.setdefault(label, []).append(perf_counter() - began)
        return out

    def measure(self, state, ctx: Context) -> Measurement:
        m = Measurement()
        checks = ctx.checks
        volume, reference = state["volume"], state["reference"]
        parallel = ParallelConfig(workers=WORKERS)
        cells: Dict[str, List[float]] = {}
        first_crs: Optional[List[float]] = None
        tiles = 0
        start = perf_counter()
        deadline = start + ctx.seconds
        while True:
            crs = []
            for codec in CODECS:
                options = dict(tile_shape=TILE_SHAPE, halo=True, cache=False)
                serial = self._cell(cells, f"{codec}.compress.serial",
                                    volumes.compress_volume, volume, codec, ERROR_BOUND, **options)
                decoded = self._cell(cells, f"{codec}.decode.serial",
                                     volumes.decompress_volume, serial)
                pooled = self._cell(cells, f"{codec}.compress.parallel",
                                    volumes.compress_volume, volume, codec, ERROR_BOUND,
                                    parallel=parallel, **options)
                pooled_decoded = self._cell(cells, f"{codec}.decode.parallel",
                                            volumes.decompress_volume, pooled, parallel=parallel)
                tiles += 2 * serial.n_tiles + 2 * pooled.n_tiles
                checks.record(serial.n_tiles > 0, f"{codec} serial compress")
                checks.record(
                    checks.within_bound(reference, decoded, ERROR_BOUND),
                    f"{codec} serial decode outside the error bound",
                )
                checks.record(
                    [t.offset for t in serial.tiles] == [t.offset for t in pooled.tiles]
                    and all(a.compressed.data == b.compressed.data
                            for a, b in zip(serial.tiles, pooled.tiles)),
                    f"{codec} parallel payload differs from serial",
                )
                checks.record(
                    _same_bits(decoded, pooled_decoded)
                    and checks.within_bound(reference, pooled_decoded, ERROR_BOUND),
                    f"{codec} parallel decode differs from serial or exceeds the bound",
                )
                crs.append(serial.compression_ratio)
            m.iterations += 1
            if first_crs is None:
                first_crs = crs
            else:
                checks.record(crs == first_crs, "volume compression ratios changed between cycles")
            if perf_counter() >= deadline:
                break
        m.window = (start, perf_counter())
        _batch_timings(m, cells, volume.nbytes * len(cells))
        m.compression_ratio = geometric_mean(first_crs)
        m.peak_rss_mb = peak_rss_mb()

        def leg(kind: str, mode: str) -> float:
            return sum(statistics.median(cells[f"{c}.{kind}.{mode}"]) for c in CODECS)

        m.ledger.update(
            tiles=tiles,
            workers=WORKERS,
            compress_speedup=leg("compress", "serial") / leg("compress", "parallel"),
            decode_speedup=leg("decode", "serial") / leg("decode", "parallel"),
        )
        m.samples = {"cell_latency_s": cells, "compression_ratios": dict(zip(CODECS, first_crs))}
        return m


# ----------------------------------------------------------------------
# the serve workloads
# ----------------------------------------------------------------------
class ServerProcess:
    """A ``repro serve`` child started through ``benchmarks.suite.serve_child``.

    The timed and the traced runs use the same launcher; only a traced
    run passes ``trace_dir``.  :meth:`stop` terminates the child and waits
    for it (killing it if it will not stop), and is always reached from a
    ``finally``.
    """

    def __init__(self, root: Path, log_dir: Path, *, cache_mb: Optional[int], trace_dir: Optional[Path]):
        command = [sys.executable, "-m", "benchmarks.suite.serve_child", str(root)]
        if cache_mb is not None:
            command += ["--cache-mb", str(cache_mb)]
        if trace_dir is not None:
            command += ["--trace-out", str(trace_dir)]
        with open(log_dir / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log
            )
        try:
            self.url = self._await_url(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _await_url(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        found = re.search(r" at (http://\S+)", line)
        if found is None:
            raise RuntimeError(f"server did not start (said {line!r})")
        return found.group(1)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            self.proc.stdout.close()


def _started_server(root: Path, cache_mb: Optional[int], ctx: Context, *, warm) -> ServerProcess:
    """Start a server over ``root`` and make one warm-up read of ``warm``."""

    server = ServerProcess(root, root, cache_mb=cache_mb, trace_dir=ctx.trace_dir)
    try:
        with StoreClient(server.url) as client:
            client.get(*warm)
    except BaseException:
        server.stop()
        raise
    return server


def _random_region(rng: np.random.Generator, extent: Tuple[int, ...], edge: int):
    starts = [int(rng.integers(0, size - edge + 1)) for size in extent]
    return tuple(slice(lo, lo + edge) for lo in starts)


@dataclass
class _ClientTally:
    """One client thread's samples, merged after the threads join."""

    latencies_s: List[float] = field(default_factory=list)
    started: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    chunks_decoded: int = 0


def _checked_read(client, tally, checks, name, region, original, what, identical_to=None) -> None:
    """One timed region read, checked against the original data (and,
    given ``identical_to``, bit for bit against a local read)."""

    began = perf_counter()
    try:
        values = client.get(name, region)
    except Exception as exc:  # noqa: BLE001 — every failure is counted
        checks.record(False, f"{what} {region}: {exc!r}")
        return
    tally.latencies_s.append(perf_counter() - began)
    tally.started.append(began)
    tally.sizes.append(values.nbytes)
    tally.chunks_decoded += int(client.last_headers.get("x-chunks-decoded", "0"))
    checks.record(
        checks.within_bound(original[region], values, ERROR_BOUND)
        and (identical_to is None or _same_bits(values, np.ascontiguousarray(identical_to[region]))),
        f"{what} {region}: response differs from the reference",
    )


def _read_samples(tallies, start: float) -> Dict[str, List]:
    return {
        "read_latency_s": [x for t in tallies for x in t.latencies_s],
        "read_start_s": [x - start for t in tallies for x in t.started],
        "read_nbytes": [x for t in tallies for x in t.sizes],
    }


def _serve_ledger(m: Measurement, tallies, before: Dict, after: Dict, chunk_nbytes: int) -> None:
    hot_before, hot_after = before["hot_chunk_cache"], after["hot_chunk_cache"]
    hits = hot_after["hits"] - hot_before["hits"]
    misses = hot_after["misses"] - hot_before["misses"]
    reads = sum(len(t.latencies_s) for t in tallies)
    region_bytes = sum(sum(t.sizes) for t in tallies)
    chunks = sum(t.chunks_decoded for t in tallies)
    m.ledger.update(
        reads=reads,
        chunks_decoded=chunks,
        decode_amplification=chunks * chunk_nbytes / region_bytes if region_bytes else 0.0,
        client_latency_s=sum(sum(t.latencies_s) for t in tallies),
        hot_cache_hits=hits,
        hot_cache_lookups=hits + misses,
        hot_cache_evictions=hot_after["evictions"] - hot_before["evictions"],
        coalesced=after["coalesced_reads"] - before["coalesced_reads"],
        gate_peak=after["gate"]["peak"],
    )


class ServeHot:
    name = "serve-hot"
    EDGE = 64
    CHUNK = 16
    REGION_EDGES = (16, 32, 64)
    CLIENTS = 2

    def setup(self, ctx: Context):
        original = generate_miranda_like_volume((self.EDGE,) * 3, seed=ctx.seed_sequence("serve-hot"))
        root = ctx.new_dir("hot")
        store = ArrayStore.create(str(root / "hot"), chunk_shape=self.CHUNK, error_bound=ERROR_BOUND, codec="sz")
        store.write(original)
        return {
            "root": root,
            "original": original,
            "reference": ctx.reference(store.read()),
            "compression_ratio": store.compression_ratio,
            # The warm-up read fills the hot-chunk cache.
            "server": _started_server(root, None, ctx, warm=("hot", None)),
        }

    def teardown(self, state) -> None:
        try:
            state["server"].stop()
        finally:
            shutil.rmtree(state["root"], ignore_errors=True)

    def _client(self, state, ctx: Context, tally: _ClientTally, index: int, deadline: float) -> None:
        rng = ctx.rng(f"serve-hot-client-{index}")
        extent = state["original"].shape
        with StoreClient(state["server"].url) as client:
            while perf_counter() < deadline:
                edge = self.REGION_EDGES[int(rng.integers(len(self.REGION_EDGES)))]
                _checked_read(client, tally, ctx.checks, "hot", _random_region(rng, extent, edge),
                              state["original"], "hot read", identical_to=state["reference"])

    def measure(self, state, ctx: Context) -> Measurement:
        m = Measurement()
        tallies = [_ClientTally() for _ in range(self.CLIENTS)]
        with StoreClient(state["server"].url) as control:
            before = control.stats()
            start = perf_counter()
            deadline = start + ctx.seconds
            threads = [
                threading.Thread(target=self._client, args=(state, ctx, tally, i, deadline))
                for i, tally in enumerate(tallies)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            m.window = (start, perf_counter())
            after = control.stats()
        m.latencies_s = [x for t in tallies for x in t.latencies_s]
        m.work_bytes = sum(sum(t.sizes) for t in tallies)
        m.busy_s = m.window[1] - m.window[0]
        m.iterations = len(m.latencies_s)
        m.compression_ratio = state["compression_ratio"]
        m.peak_rss_mb = state["server"].peak_rss_mb()
        _serve_ledger(m, tallies, before, after, self.CHUNK**3 * 8)
        if ctx.trace_dir is not None:
            m.server_spans_path = ctx.trace_dir / "server-spans.json"
        m.samples = _read_samples(tallies, start)
        return m


class ServeChurn:
    name = "serve-churn"
    EDGE = 128
    CHUNK = 16
    CACHE_MB = 4
    SLAB_ROWS = 8
    #: Appends available in the generated data; a writer that gets this
    #: far keeps reading without appending.
    MAX_APPENDS = 32
    READS_PER_APPEND = 16
    #: Short enough that even a half-length traced run reaches the first
    #: compaction near its deadline, which fixes the reported ratio.
    COMPACT_EVERY = 4
    READ_EDGE = 32

    def setup(self, ctx: Context):
        rows = self.EDGE + self.SLAB_ROWS * self.MAX_APPENDS
        original = generate_miranda_like_volume((rows, self.EDGE, self.EDGE), seed=ctx.seed_sequence("serve-churn"))
        root = ctx.new_dir("churn")
        store = ArrayStore.create(
            str(root / "churn"), chunk_shape=self.CHUNK, error_bound=ERROR_BOUND, codec="sz", halo=True
        )
        store.write(original[: self.EDGE], parallel=ParallelConfig(workers=WORKERS))
        return {
            "root": root,
            "original": original,
            "reference": ctx.reference(original),
            "server": _started_server(
                root, self.CACHE_MB, ctx, warm=("churn", (slice(0, self.READ_EDGE),) * 3)
            ),
        }

    def teardown(self, state) -> None:
        try:
            state["server"].stop()
        finally:
            shutil.rmtree(state["root"], ignore_errors=True)

    def measure(self, state, ctx: Context) -> Measurement:
        m = Measurement()
        checks = ctx.checks
        original, reference = state["original"], state["reference"]
        rows = [self.EDGE]  # committed extent along axis 0, shared with the reader
        rows_lock = threading.Lock()
        writer_done = threading.Event()
        tallies = [_ClientTally(), _ClientTally()]
        appends: List[float] = []
        compacts: List[float] = []
        # "bytes" counts every byte written to the data file: appends, then
        # compaction rewrites; "data_nbytes" is the file size after the
        # last compaction.
        written = {"bytes": 0, "user_bytes": 0, "cr": float("nan"), "data_nbytes": 0}

        def read_once(client, rng, tally, what):
            with rows_lock:
                extent = (rows[0], self.EDGE, self.EDGE)
            _checked_read(client, tally, checks, "churn", _random_region(rng, extent, self.READ_EDGE),
                          reference, what)

        def write_step(client, step: int) -> None:
            lo = self.EDGE + step * self.SLAB_ROWS
            slab = original[lo : lo + self.SLAB_ROWS]
            began = perf_counter()
            client.append("churn", slab)
            appends.append(perf_counter() - began)
            checks.record(True, f"append {step}")
            written["user_bytes"] += slab.nbytes
            with rows_lock:
                rows[0] = lo + self.SLAB_ROWS
            if step % self.COMPACT_EVERY != self.COMPACT_EVERY - 1:
                return
            began = perf_counter()
            report = client.compact("churn")
            compacts.append(perf_counter() - began)
            checks.record(report["orphaned_nbytes"] == 0, f"compact {step} left orphans")
            size_before = report["reclaimed_nbytes"] + report["data_file_nbytes"]
            written["bytes"] += size_before - written["data_nbytes"] + report["data_file_nbytes"]
            written["data_nbytes"] = report["data_file_nbytes"]
            if step == self.COMPACT_EVERY - 1:
                written["cr"] = client.info("churn")["compression_ratio"]

        def writer(deadline: float) -> None:
            rng = ctx.rng("serve-churn-writer")
            step = 0
            try:
                with StoreClient(state["server"].url) as client:
                    # The first compaction fixes the reported ratio, so the
                    # writer always gets that far.
                    while perf_counter() < deadline or step < self.COMPACT_EVERY:
                        if step < self.MAX_APPENDS:
                            try:
                                write_step(client, step)
                            except Exception as exc:  # noqa: BLE001 — every failure is counted
                                checks.record(False, f"write step {step}: {exc!r}")
                                break
                        for _ in range(self.READS_PER_APPEND):
                            read_once(client, rng, tallies[0], "writer read")
                        step += 1
            finally:
                writer_done.set()

        def reader() -> None:
            rng = ctx.rng("serve-churn-reader")
            with StoreClient(state["server"].url) as client:
                while not writer_done.is_set():
                    read_once(client, rng, tallies[1], "reader read")

        with StoreClient(state["server"].url) as control:
            before = control.stats()
            written["data_nbytes"] = control.info("churn")["data_file_nbytes"]
            start = perf_counter()
            threads = [
                threading.Thread(target=writer, args=(start + ctx.seconds,)),
                threading.Thread(target=reader),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            m.window = (start, perf_counter())
            after = control.stats()
            info = control.info("churn")
        written["bytes"] += info["data_file_nbytes"] - written["data_nbytes"]

        m.latencies_s = [x for t in tallies for x in t.latencies_s]
        m.work_bytes = sum(sum(t.sizes) for t in tallies)
        m.busy_s = m.window[1] - m.window[0]
        m.iterations = len(m.latencies_s) + len(appends) + len(compacts)
        m.compression_ratio = written["cr"]
        m.peak_rss_mb = state["server"].peak_rss_mb()
        _serve_ledger(m, tallies, before, after, self.CHUNK**3 * 8)
        live = info["data_file_nbytes"] - info["orphaned_nbytes"]
        m.ledger["client_latency_s"] += sum(appends) + sum(compacts)
        m.ledger.update(
            bytes_written_per_user_byte=written["bytes"] / written["user_bytes"] if written["user_bytes"] else 0.0,
            space_amplification=info["data_file_nbytes"] / live if live else 0.0,
        )
        if ctx.trace_dir is not None:
            m.server_spans_path = ctx.trace_dir / "server-spans.json"
        m.samples = dict(
            _read_samples(tallies, start),
            append_latency_s=appends,
            compact_latency_s=compacts,
        )
        return m


WORKLOADS = {w.name: w for w in (PaperSweep, VolumeRoundtrip, ServeHot, ServeChurn)}


def execute(name: str, ctx: Context, *, repeats: int) -> Measurement:
    """Set up ``repeats`` times (keeping the last), measure, tear down."""

    workload = WORKLOADS[name]()
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    setup_times: List[float] = []
    state = None
    try:
        for _ in range(repeats):
            if state is not None:
                workload.teardown(state)
                state = None
            began = perf_counter()
            state = workload.setup(ctx)
            setup_times.append(perf_counter() - began)
        measurement = workload.measure(state, ctx)
    finally:
        try:
            if state is not None:
                workload.teardown(state)
        finally:
            shutil.rmtree(ctx.tmp, ignore_errors=True)
    measurement.setup_s = statistics.median(setup_times)
    measurement.samples["setup_s"] = setup_times
    measurement.ledger["bound_used"] = ctx.checks.bound_used
    return measurement
