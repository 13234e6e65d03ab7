"""Command-line interface.

``python -m repro <command>`` drives the most common workflows without
writing any Python:

* ``compress``   — compress a field file (``.npy`` or SDRBench raw) with a
  named compressor and error bound; report CR / PSNR / max error.
* ``stats``      — report the correlation statistics of a field file
  (global variogram range, local statistics, entropy).
* ``experiment`` — run a named dataset sweep (``gaussian-single``,
  ``gaussian-multi``, ``miranda``) and write the records to CSV.
* ``figure``     — regenerate one of the paper's figures (3-7) and print
  the fitted-series table (optionally as Markdown).
* ``store``      — the chunked compressed array store: ``put`` a field
  file or registry dataset into a store directory (``--codec best``
  keeps each chunk's smallest payload among sz, zfp and mgard), ``get`` a
  region back out (only intersecting chunks are decoded), ``append`` /
  ``compact`` for growth and reclamation, ``info`` / ``ls`` for
  summaries and the per-chunk index.  ``put`` / ``get`` / ``append`` /
  ``info`` / ``compact`` take ``--url http://host:port`` to talk to a
  running ``repro serve`` instead of a local directory (``get --url
  --client-decode`` fetches compressed chunks and decodes locally).
* ``serve``      — serve every store under a root directory over HTTP
  (see :mod:`repro.serve`), including the ``/debug`` flight-recorder
  endpoints (dashboard, metrics history, slow-request capture, on-demand
  profiler).
* ``profile``    — re-run another repro invocation in-process under the
  sampling profiler and write a speedscope JSON profile
  (``repro profile --out prof.json -- compress field.npy --volume``).
* ``top``        — a live terminal view of a running server's newest
  ``/debug/vars`` history point (request rates, route latency
  quantiles, gate occupancy, cache hits), redrawn once per history tick.
* ``lint``       — the repo-specific invariant checkers
  (:mod:`repro.analysis`): dtype-cast safety, async-blocking discipline,
  binary-format/golden pairing, worker-boundary hygiene, seeded
  randomness, resource hygiene, timing discipline.  ``--format json``
  for machines.

The CLI intentionally exposes only the high-level entry points; everything
it does is a thin wrapper over the public API, so scripts can always drop
down to :mod:`repro.core` directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.figures import (
    figure3_global_range_gaussian,
    figure4_global_range_miranda,
    figure5_local_range_gaussian,
    figure6_local_svd_gaussian,
    figure7_local_stats_miranda,
)
from repro.core.pipeline import run_experiment
from repro.core.reporting import format_table, series_to_markdown, write_records_csv
from repro.datasets.io import load_field, load_raw
from repro.datasets.registry import default_registry
from repro.pressio.api import ERROR_BOUND_MODES, absolute_bound, compress_and_measure
from repro.stats.entropy import quantized_entropy
from repro.stats.local import std_local_variogram_range
from repro.stats.svd import std_local_svd_truncation
from repro.stats.variogram_models import estimate_variogram_range
from repro.utils.parallel import ParallelConfig

__all__ = ["main", "build_parser"]

_FIGURES = {
    "3": figure3_global_range_gaussian,
    "4": figure4_global_range_miranda,
    "5": figure5_local_range_gaussian,
    "6": figure6_local_svd_gaussian,
    "7": figure7_local_stats_miranda,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Exploring Lossy Compressibility through "
        "Statistical Correlations of Scientific Datasets' (SC 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # ---- compress ------------------------------------------------------
    compress = subparsers.add_parser("compress", help="compress a field file and report metrics")
    _add_field_arguments(compress)
    compress.add_argument("--compressor", default="sz", choices=("sz", "zfp", "mgard"))
    compress.add_argument("--error-bound", type=float, default=1e-3)
    compress.add_argument(
        "--mode", default="abs", choices=ERROR_BOUND_MODES, help="error bound interpretation"
    )
    compress.add_argument(
        "--volume",
        action="store_true",
        help="compress a 3D input natively through the tiled volume pipeline "
        "instead of taking its middle slice",
    )
    compress.add_argument(
        "--tile",
        type=int,
        default=64,
        help="tile edge length for the volume pipeline (with --volume)",
    )
    compress.add_argument(
        "--workers", type=_positive_int, default=1, help="tile workers (with --volume)"
    )
    compress.add_argument(
        "--baseline",
        action="store_true",
        help="also report the slice-by-slice baseline CR (with --volume)",
    )
    compress.add_argument(
        "--stream",
        action="store_true",
        help="with --volume and a .npy field: stream the volume slab by "
        "slab (bounded memory — at most one slab of tiles plus halo "
        "planes resident); output is bit-identical to the one-shot path",
    )
    compress.add_argument(
        "--halo",
        action="store_true",
        help="halo-aware tiling: wavefront-ordered tiles predict and "
        "entropy code across tile seams (with --volume)",
    )
    compress.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record nested timing spans of the compression and write them "
        "as Chrome trace-event JSON (open in Perfetto or chrome://tracing)",
    )

    # ---- profile -------------------------------------------------------
    profile = subparsers.add_parser(
        "profile",
        help="run another repro command under the sampling profiler",
        description="Re-runs the repro invocation after '--' in-process "
        "with the sampling profiler attached and writes a speedscope JSON "
        "profile, e.g.: repro profile --out prof.json -- compress field.npy "
        "--volume",
    )
    profile.add_argument(
        "--out", required=True, metavar="PATH", help="speedscope JSON output"
    )
    profile.add_argument(
        "--hz", type=float, default=None, help="sampling rate in Hz (default 99)"
    )
    profile.add_argument(
        "command_argv",
        nargs=argparse.REMAINDER,
        metavar="-- <repro subcommand ...>",
        help="the repro invocation to profile",
    )

    # ---- top -----------------------------------------------------------
    top = subparsers.add_parser(
        "top", help="live terminal view of a serving instance's /debug/vars"
    )
    top.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8787")
    top.add_argument(
        "--iterations",
        type=_non_negative_int,
        default=0,
        help="frames to render before exiting (0 = run until interrupted)",
    )

    # ---- stats ---------------------------------------------------------
    stats = subparsers.add_parser("stats", help="correlation statistics of a field file")
    _add_field_arguments(stats)
    stats.add_argument("--window", type=int, default=32)
    stats.add_argument("--error-bound", type=float, default=1e-3, help="bound for the entropy statistic")

    # ---- experiment ----------------------------------------------------
    experiment = subparsers.add_parser("experiment", help="run a dataset sweep, write CSV")
    experiment.add_argument(
        "dataset",
        choices=(
            "gaussian-single",
            "gaussian-multi",
            "gaussian-nonstationary",
            "miranda",
            "miranda-volume",
        ),
    )
    experiment.add_argument("--output", required=True, help="CSV output path")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--size", type=int, default=128, help="Gaussian field edge length")
    experiment.add_argument(
        "--bounds", type=float, nargs="+", default=[1e-5, 1e-4, 1e-3, 1e-2]
    )
    experiment.add_argument(
        "--compressors", nargs="+", default=["sz", "zfp", "mgard"],
        choices=("sz", "zfp", "mgard"),
    )
    experiment.add_argument("--workers", type=_positive_int, default=1)
    experiment.add_argument(
        "--skip-local-stats", action="store_true", help="compute only the global variogram range"
    )

    # ---- store ---------------------------------------------------------
    store = subparsers.add_parser("store", help="chunked compressed array store")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    put = store_sub.add_parser("put", help="compress an array into a store directory")
    put.add_argument("store", help="store directory (created if missing)")
    source = put.add_mutually_exclusive_group(required=True)
    source.add_argument("--field", help="path to a .npy file or an SDRBench raw binary")
    source.add_argument(
        "--dataset",
        help="registry dataset name (e.g. miranda-volume); the field selected "
        "by --label (default: the first field)",
    )
    put.add_argument("--label", default=None, help="field label within --dataset")
    put.add_argument("--seed", type=int, default=0, help="dataset realisation seed")
    put.add_argument(
        "--raw-shape", type=int, nargs="+", default=None,
        help="shape of a raw binary --field (omit for .npy files)",
    )
    put.add_argument("--raw-dtype", default="float32", choices=("float32", "float64"))
    put.add_argument(
        "--codec",
        default="sz",
        type=_codec_policy,
        help="codec policy: a codec name (sz/zfp/mgard) or 'best[:a+b]'; each "
        "chunk keeps the smallest payload among the codecs listed",
    )
    put.add_argument("--error-bound", type=float, default=1e-3)
    put.add_argument(
        "--chunk", type=int, default=None,
        help="chunk edge length (default: 128 for 2D, 64 for 3D)",
    )
    put.add_argument("--workers", type=_positive_int, default=1, help="parallel chunk workers")
    put.add_argument(
        "--stream",
        action="store_true",
        help="with a 3D .npy --field: stream the volume into the store "
        "slab by slab (chunk-edge-aligned appends, bounded memory) "
        "instead of loading it whole",
    )
    put.add_argument(
        "--no-chunk-stats", action="store_true",
        help="skip the per-chunk correlation statistics",
    )
    put.add_argument(
        "--overwrite", action="store_true", help="replace an existing store"
    )
    put.add_argument(
        "--halo",
        action="store_true",
        help="halo-aware chunking: odd-parity chunks predict and entropy "
        "code against their anchor neighbours",
    )

    put.add_argument(
        "--url", default=None,
        help="PUT to a running 'repro serve' (the store argument is the "
        "dataset name, not a directory)",
    )

    get = store_sub.add_parser("get", help="read a region from a store")
    get.add_argument("store", help="store directory (or dataset name with --url)")
    get.add_argument(
        "--region", default=None,
        help="comma-separated per-axis slices, e.g. '0:32,0:32,16:48' "
        "(omitted axes read fully; bare integers drop the axis)",
    )
    get.add_argument("--output", default=None, help="write the region to this .npy file")
    get.add_argument(
        "--url", default=None, help="read from a running 'repro serve'"
    )
    get.add_argument(
        "--client-decode", action="store_true",
        help="with --url: fetch still-compressed chunks and decode locally",
    )
    get.add_argument(
        "--workers", type=_positive_int, default=1,
        help="local reads: decode chunks with this many workers (two-wave "
        "parallel decode; 1 = serial)",
    )

    append = store_sub.add_parser(
        "append", help="grow a store along axis 0 with a field file"
    )
    append.add_argument("store", help="store directory (or dataset name with --url)")
    append.add_argument("--field", required=True, help=".npy file or SDRBench raw binary")
    append.add_argument(
        "--raw-shape", type=int, nargs="+", default=None,
        help="shape of a raw binary --field (omit for .npy files)",
    )
    append.add_argument("--raw-dtype", default="float32", choices=("float32", "float64"))
    append.add_argument(
        "--url", default=None, help="append via a running 'repro serve'"
    )

    compact = store_sub.add_parser(
        "compact", help="rewrite chunks.bin to reclaim orphaned payload bytes"
    )
    compact.add_argument("store", help="store directory (or dataset name with --url)")
    compact.add_argument(
        "--url", default=None, help="compact via a running 'repro serve'"
    )

    info = store_sub.add_parser("info", help="summarise a store")
    info.add_argument("store", help="store directory (or dataset name with --url)")
    info.add_argument(
        "--url", default=None, help="query a running 'repro serve'"
    )

    ls = store_sub.add_parser("ls", help="per-chunk listing of a store")
    ls.add_argument("store", help="store directory")

    # ---- serve ---------------------------------------------------------
    serve = subparsers.add_parser(
        "serve", help="serve the stores under a root directory over HTTP"
    )
    serve.add_argument("root", help="directory whose store subdirectories are served")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--max-concurrency", type=_positive_int, default=8,
        help="semaphore bound on concurrently handled requests",
    )
    serve.add_argument(
        "--cache-mb", type=_positive_int, default=256,
        help="hot-chunk decode cache budget in MiB",
    )
    serve.add_argument(
        "--decode-workers", type=_positive_int, default=2,
        help="thread-pool workers for chunk decode/compress work",
    )
    serve.add_argument(
        "--max-body-mb", type=_positive_int, default=512,
        help="largest accepted request body / decoded response in MiB",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append one JSON line per handled request to this file",
    )
    serve.add_argument(
        "--access-log-max-bytes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="rotate the access log before it exceeds N bytes "
        "(path -> path.1 -> ...; default: never rotate)",
    )
    serve.add_argument(
        "--access-log-backups",
        type=_positive_int,
        default=3,
        metavar="N",
        help="rotated access-log files kept (with --access-log-max-bytes)",
    )
    serve.add_argument(
        "--slow-requests",
        type=_non_negative_int,
        default=8,
        metavar="N",
        help="slowest span trees retained per route for GET /debug/requests "
        "(0 disables capture)",
    )

    # ---- lint ----------------------------------------------------------
    lint = subparsers.add_parser(
        "lint", help="repo-specific invariant checkers (static analysis)"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    # ---- figure --------------------------------------------------------
    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures (3-7)")
    figure.add_argument("number", choices=sorted(_FIGURES))
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--size", type=int, default=128, help="Gaussian field edge length")
    figure.add_argument("--markdown", action="store_true", help="emit Markdown tables")
    figure.add_argument("--workers", type=_positive_int, default=1)
    return parser


def _positive_int(text: str) -> int:
    """argparse type of counts and sizes: an integer of at least 1."""

    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse type of counts where 0 means "off" or "unbounded"."""

    return _int_at_least(text, 0)


def _int_at_least(text: str, floor: int) -> int:
    value = int(text)
    if value < floor:
        raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
    return value


def _codec_policy(text: str) -> str:
    """argparse type of ``--codec``: a spec :func:`parse_policy` accepts."""

    from repro.store.policy import parse_policy

    try:
        parse_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _parallel(workers: int) -> Optional[ParallelConfig]:
    """The pool for a ``--workers`` count; ``None`` (serial) for 1."""

    return ParallelConfig(workers=workers) if workers > 1 else None


def _add_field_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("field", help="path to a .npy file or an SDRBench raw binary")
    parser.add_argument(
        "--raw-shape",
        type=int,
        nargs="+",
        default=None,
        help="shape of the raw binary (omit for .npy files)",
    )
    parser.add_argument("--raw-dtype", default="float32", choices=("float32", "float64"))
    parser.add_argument(
        "--slice-axis",
        type=int,
        default=0,
        help="for 3D inputs: axis along which the middle slice is taken",
    )


def _load_2d_field(args: argparse.Namespace) -> np.ndarray:
    if args.raw_shape is not None:
        field = load_raw(args.field, args.raw_shape, dtype=args.raw_dtype)
    else:
        field = load_field(args.field)
    field = np.asarray(field, dtype=np.float64)
    if field.ndim == 3:
        index = field.shape[args.slice_axis] // 2
        field = np.take(field, index, axis=args.slice_axis)
    if field.ndim != 2:
        raise SystemExit(f"expected a 2D or 3D field, got shape {field.shape}")
    return field


def _load_any_field(args: argparse.Namespace) -> np.ndarray:
    if args.raw_shape is not None:
        field = load_raw(args.field, args.raw_shape, dtype=args.raw_dtype)
    else:
        field = load_field(args.field)
    return np.asarray(field, dtype=np.float64)


def _command_compress_volume_stream(args: argparse.Namespace) -> int:
    """Streaming volume compress: slab-by-slab, bounded memory.

    Never loads the full volume: the source ``.npy`` is read slab by slab
    for compression, and the error metrics come from a second streaming
    pass comparing each reconstructed slab against a re-read source slab.
    """

    from repro.pressio.metrics import psnr
    from repro.volumes.streaming import (
        compress_volume_stream,
        decompress_volume_stream,
        open_slab_source,
    )

    if args.raw_shape is not None:
        raise SystemExit("--stream needs a .npy field (raw binaries are not supported)")
    if args.baseline:
        raise SystemExit("--baseline needs the full volume; drop it with --stream")
    try:
        reader = open_slab_source(args.field)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"cannot stream {args.field}: {exc}") from exc

    n_rows = reader.shape[0]
    slabs = (
        reader.read(row, min(args.tile, n_rows - row))
        for row in range(0, n_rows, args.tile)
    )
    bound = absolute_bound(args.error_bound, args.mode, slabs)
    parallel = _parallel(args.workers)
    compressed = compress_volume_stream(
        args.field,
        args.compressor,
        bound,
        tile_shape=(args.tile,) * 3,
        parallel=parallel,
        halo=args.halo,
    )

    max_abs_error = 0.0
    sq_sum = 0.0
    lo, hi = np.inf, -np.inf
    count = 0
    for row_start, slab in decompress_volume_stream(compressed):
        source = np.asarray(
            reader.read(row_start, slab.shape[0]), dtype=np.float64
        )
        diff = np.abs(source - slab)
        max_abs_error = max(max_abs_error, float(diff.max()))
        sq_sum += float(np.square(diff, out=diff).sum())
        lo, hi = min(lo, float(source.min())), max(hi, float(source.max()))
        count += source.size
    rmse = (sq_sum / count) ** 0.5 if count else 0.0
    bound_satisfied = max_abs_error <= bound * (1.0 + 1e-9)

    rows = [
        ("compressor", args.compressor),
        ("error bound", f"{bound:g} (abs)"),
        ("volume shape", "x".join(str(s) for s in compressed.shape)),
        ("tiles", f"{compressed.n_tiles} ({args.tile}^3, streamed)"),
        ("halo", str(bool(args.halo))),
        ("compression ratio", f"{compressed.compression_ratio:.3f}"),
        (
            "bit rate (bits/value)",
            f"{8.0 * compressed.compressed_nbytes / count:.3f}",
        ),
        ("max abs error", f"{max_abs_error:.3e}"),
        ("RMSE", f"{rmse:.3e}"),
        ("PSNR (dB)", f"{psnr(hi - lo, rmse):.2f}"),
        ("bound satisfied", str(bound_satisfied)),
    ]
    print(format_table(("quantity", "value"), rows))
    return 0 if bound_satisfied else 1


def _command_compress_volume(args: argparse.Namespace, volume: np.ndarray) -> int:
    from repro.volumes.pipeline import compress_volume, slice_baseline, volume_metrics

    bound = absolute_bound(args.error_bound, args.mode, [volume])
    parallel = _parallel(args.workers)
    compressed = compress_volume(
        volume,
        args.compressor,
        bound,
        tile_shape=(args.tile,) * 3,
        parallel=parallel,
        halo=args.halo,
    )
    metrics = volume_metrics(volume, compressed)
    rows = [
        ("compressor", args.compressor),
        ("error bound", f"{bound:g} (abs)"),
        ("volume shape", "x".join(str(s) for s in volume.shape)),
        ("tiles", f"{compressed.n_tiles} ({args.tile}^3)"),
        ("halo", str(bool(args.halo))),
        ("compression ratio", f"{metrics.compression_ratio:.3f}"),
        ("bit rate (bits/value)", f"{metrics.bit_rate:.3f}"),
        ("max abs error", f"{metrics.max_abs_error:.3e}"),
        ("RMSE", f"{metrics.rmse:.3e}"),
        ("PSNR (dB)", f"{metrics.psnr:.2f}"),
        ("bound satisfied", str(metrics.bound_satisfied)),
    ]
    if args.baseline:
        baseline_cr = slice_baseline(volume, args.compressor, bound)
        rows.append(("slice-by-slice baseline CR", f"{baseline_cr:.3f}"))
    print(format_table(("quantity", "value"), rows))
    return 0 if metrics.bound_satisfied else 1


def _command_compress(args: argparse.Namespace) -> int:
    if args.trace_out:
        from repro.obs.trace import Tracer, install_tracer

        tracer = Tracer()
        with install_tracer(tracer):
            code = _run_compress(args)
        tracer.write_chrome_trace(args.trace_out)
        print(f"wrote {len(tracer.spans())} spans to {args.trace_out}")
        return code
    return _run_compress(args)


def _print_hot_functions(profiler, top: int = 8) -> None:
    rows = profiler.hot_functions(top)
    if not rows:
        return
    print("hot functions (self samples / total samples):")
    for label, self_samples, total_samples in rows:
        print(f"  {self_samples:>6} / {total_samples:>6}  {label}")


def _command_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import DEFAULT_HZ, SamplingProfiler

    argv = list(args.command_argv)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        raise SystemExit(
            "usage: repro profile --out prof.json -- <repro subcommand ...>"
        )
    if argv[0] == "profile":
        raise SystemExit("refusing to profile 'repro profile' recursively")
    profiler = SamplingProfiler(hz=args.hz or DEFAULT_HZ)
    with profiler:
        code = main(argv)
    profiler.write_speedscope(args.out, name="repro " + " ".join(argv))
    print(
        f"profiled 'repro {' '.join(argv)}': {profiler.sample_count} samples "
        f"over {profiler.elapsed:.2f}s -> {args.out}"
    )
    _print_hot_functions(profiler)
    return code


def _command_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.top import render_frame
    from repro.serve.client import ServeError, StoreClient

    window = None
    frames = 0
    try:
        with StoreClient(args.url) as client:
            while True:
                try:
                    series = client.debug_vars(window)
                except (ServeError, ConnectionError, OSError) as exc:
                    raise SystemExit(f"cannot read {args.url}/debug/vars: {exc}")
                frame = render_frame(series, title=f"repro top — {args.url}")
                # ANSI clear + home keeps the frame in place on real
                # terminals; harmless noise when piped to a file.
                if sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                frames += 1
                if args.iterations and frames >= args.iterations:
                    return 0
                # The server samples at most once per interval, so a
                # faster poll would re-read the same point; two intervals
                # of history always hold the newest one.
                window = 2 * series["interval"]
                time.sleep(series["interval"])
    except KeyboardInterrupt:
        return 0


def _run_compress(args: argparse.Namespace) -> int:
    if args.stream and not args.volume:
        raise SystemExit("--stream only applies with --volume")
    if args.volume:
        if args.stream:
            return _command_compress_volume_stream(args)
        volume = _load_any_field(args)
        if volume.ndim != 3:
            raise SystemExit(f"--volume expects a 3D field, got shape {volume.shape}")
        return _command_compress_volume(args, volume)
    field = _load_2d_field(args)
    compressed, metrics = compress_and_measure(
        field, args.compressor, args.error_bound, mode=args.mode
    )
    rows = [
        ("compressor", args.compressor),
        ("error bound", f"{compressed.error_bound:g} (abs)"),
        ("field shape", "x".join(str(s) for s in field.shape)),
        ("compression ratio", f"{metrics.compression_ratio:.3f}"),
        ("bit rate (bits/value)", f"{metrics.bit_rate:.3f}"),
        ("max abs error", f"{metrics.max_abs_error:.3e}"),
        ("RMSE", f"{metrics.rmse:.3e}"),
        ("PSNR (dB)", f"{metrics.psnr:.2f}"),
        ("bound satisfied", str(metrics.bound_satisfied)),
    ]
    print(format_table(("quantity", "value"), rows))
    return 0 if metrics.bound_satisfied else 1


def _command_stats(args: argparse.Namespace) -> int:
    field = _load_2d_field(args)
    rows = [
        ("field shape", "x".join(str(s) for s in field.shape)),
        ("mean", f"{field.mean():.4f}"),
        ("std", f"{field.std():.4f}"),
        ("global variogram range", f"{estimate_variogram_range(field):.3f}"),
    ]
    if min(field.shape) >= args.window:
        rows.append(
            (
                f"std local variogram range (H={args.window})",
                f"{std_local_variogram_range(field, args.window):.3f}",
            )
        )
        rows.append(
            (
                f"std local SVD truncation (H={args.window})",
                f"{std_local_svd_truncation(field, args.window):.3f}",
            )
        )
    rows.append(
        (
            f"quantized entropy @ {args.error_bound:g} (bits/value)",
            f"{quantized_entropy(field, args.error_bound):.3f}",
        )
    )
    print(format_table(("statistic", "value"), rows))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    registry = default_registry(gaussian_shape=(args.size, args.size))
    config = ExperimentConfig(
        compressors=tuple(args.compressors),
        error_bounds=tuple(args.bounds),
        compute_local_variogram=not args.skip_local_stats,
        compute_local_svd=not args.skip_local_stats,
    )
    parallel = _parallel(args.workers)
    result = run_experiment(
        args.dataset, config=config, registry=registry, seed=args.seed, parallel=parallel
    )
    write_records_csv(args.output, result.records)
    print(f"wrote {len(result.records)} records to {args.output}")
    return 0


def _parse_region(text: Optional[str]):
    """Parse ``'0:32,5,16:'`` into a tuple of slices/ints (None for all)."""

    from repro.store.region import parse_region_text

    try:
        return parse_region_text(text)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _open_client(url: str):
    from repro.serve.client import StoreClient

    return StoreClient(url)


def _command_store(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError
    from repro.store import ArrayStore

    handlers = {
        "put": _command_store_put,
        "get": _command_store_get,
        "append": _command_store_append,
        "compact": _command_store_compact,
        "info": _command_store_info,
        "ls": _command_store_ls,
    }
    try:
        return handlers[args.store_command](args, ArrayStore)
    except (ServeError, ConnectionError, OSError) as exc:
        # Local stores keep their own errors; a server's answer is a message.
        if not getattr(args, "url", None):
            raise
        raise SystemExit(f"{args.url}: {exc}") from exc


def _command_store_put_stream(args: argparse.Namespace, ArrayStore) -> int:
    """Stream a 3D .npy field into a store slab by slab.

    Slabs are chunk-edge-aligned along axis 0, so every flush except the
    first is a pure ``append`` and peak memory stays one slab's worth
    regardless of volume size."""
    from repro.store.array_store import DEFAULT_CHUNK_EDGES
    from repro.volumes.streaming import open_slab_source

    if args.url:
        raise SystemExit("--stream only applies to local stores, not --url")
    if args.dataset is not None or args.field is None:
        raise SystemExit("--stream requires a --field file source")
    if args.raw_shape is not None:
        raise SystemExit("--stream requires a .npy --field (not a raw binary)")
    try:
        source = open_slab_source(args.field)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot stream {args.field}: {exc}")
    if len(source.shape) != 3:
        raise SystemExit(
            f"--stream requires a 3D volume, got shape {source.shape}"
        )

    edge0 = args.chunk if args.chunk is not None else DEFAULT_CHUNK_EDGES[3]
    store = ArrayStore.create(
        args.store,
        chunk_shape=args.chunk,
        error_bound=args.error_bound,
        codec=args.codec,
        chunk_stats=not args.no_chunk_stats,
        overwrite=args.overwrite,
        halo=args.halo,
    )
    parallel = _parallel(args.workers)
    n_slabs = 0
    for row_start in range(0, source.shape[0], edge0):
        slab = source.read(row_start, min(edge0, source.shape[0] - row_start))
        if row_start == 0:
            store.write(slab, parallel=parallel)
        else:
            store.append(slab, parallel=parallel)
        n_slabs += 1
    print(f"streamed {n_slabs} slab(s) of {edge0} row(s)")
    return _print_store_info(store)


def _command_store_put(args: argparse.Namespace, ArrayStore) -> int:
    if args.stream:
        return _command_store_put_stream(args, ArrayStore)
    if args.field is not None:
        array = _load_any_field(args)
    else:
        fields = default_registry().create(args.dataset, seed=args.seed)
        labels = [label for label, _ in fields]
        if args.label is None:
            label, array = fields[0]
        else:
            matches = [f for f in fields if f[0] == args.label]
            if not matches:
                raise SystemExit(
                    f"label {args.label!r} not in dataset {args.dataset!r}; "
                    f"available: {labels}"
                )
            label, array = matches[0]
        print(f"dataset field: {label}")
    if array.ndim not in (2, 3):
        raise SystemExit(f"store arrays must be 2D or 3D, got shape {array.shape}")

    if args.url:
        with _open_client(args.url) as client:
            summary = client.put(
                args.store,
                array,
                codec=args.codec,
                error_bound=args.error_bound,
                chunk=args.chunk,
                halo=args.halo,
            )
        print(
            f"put {summary['name']}: shape "
            f"{'x'.join(str(s) for s in summary['shape'])}, "
            f"{summary['n_chunks']} chunks, "
            f"CR {summary['compression_ratio']:.3f}"
        )
        return 0

    store = ArrayStore.create(
        args.store,
        chunk_shape=args.chunk,
        error_bound=args.error_bound,
        codec=args.codec,
        chunk_stats=not args.no_chunk_stats,
        overwrite=args.overwrite,
        halo=args.halo,
    )
    parallel = _parallel(args.workers)
    store.write(array, parallel=parallel)
    return _print_store_info(store)


def _command_store_get(args: argparse.Namespace, ArrayStore) -> int:
    region = _parse_region(args.region)
    if args.url:
        with _open_client(args.url) as client:
            values = client.get(
                args.store,
                region,
                decode="client" if args.client_decode else "server",
            )
        mode = "client-decoded" if args.client_decode else "server-decoded"
        print(f"read {values.shape} from {args.url}/ds/{args.store} ({mode})")
    else:
        if args.client_decode:
            raise SystemExit("--client-decode only applies with --url")
        store = ArrayStore.open(args.store)
        parallel = _parallel(args.workers)
        values = store.read(region, parallel=parallel)
        report = store.last_read
        print(
            f"read {values.shape} from {store.shape}: decoded "
            f"{report.chunks_decoded}/{report.chunks_total} chunks "
            f"({report.chunks_intersecting} intersecting)"
        )
    if args.output:
        np.save(args.output, values)
        print(f"wrote {args.output}")
    else:
        print(
            f"min={values.min():.6g} max={values.max():.6g} "
            f"mean={values.mean():.6g} std={values.std():.6g}"
        )
    return 0


def _command_store_append(args: argparse.Namespace, ArrayStore) -> int:
    array = _load_any_field(args)
    if args.url:
        with _open_client(args.url) as client:
            summary = client.append(args.store, array)
        print(
            f"appended to {summary['name']}: shape "
            f"{'x'.join(str(s) for s in summary['shape'])}, "
            f"{summary['n_chunks']} chunks, "
            f"{summary['orphaned_nbytes']} orphaned bytes"
        )
        return 0
    store = ArrayStore.open(args.store)
    try:
        store.append(array)
    except ValueError as exc:
        raise SystemExit(f"cannot append to {args.store}: {exc}") from exc
    print(
        f"appended to {args.store}: shape "
        f"{'x'.join(str(s) for s in store.shape)}, "
        f"{store.n_chunks} chunks, {store.orphaned_nbytes} orphaned bytes"
    )
    return 0


def _command_store_compact(args: argparse.Namespace, ArrayStore) -> int:
    if args.url:
        with _open_client(args.url) as client:
            report = client.compact(args.store)
    else:
        report = ArrayStore.open(args.store).compact()
    print(
        f"compacted: reclaimed {report['reclaimed_nbytes']} bytes, "
        f"data file now {report['data_file_nbytes']} bytes "
        f"({report['n_ranges']} payload ranges)"
    )
    return 0


def _print_store_info(store) -> int:
    info = store.info()
    if info["shape"] is None:
        print(f"store {info['path']} holds no data yet (codec policy "
              f"{info['codec_policy']}, error bound {info['error_bound']:g})")
        return 0
    rows = [
        ("shape", "x".join(str(s) for s in info["shape"])),
        ("chunk shape", "x".join(str(s) for s in info["chunk_shape"])),
        ("chunks", str(info["n_chunks"])),
        ("codec policy", info["codec_policy"]),
        ("error bound", f"{info['error_bound']:g}"),
        ("compression ratio", f"{info['compression_ratio']:.3f}"),
        ("compressed bytes", str(info["compressed_nbytes"])),
        ("stored bytes (dedup)", str(info["stored_nbytes"])),
        ("codec histogram", ", ".join(f"{k}:{v}" for k, v in sorted(info["codec_histogram"].items()))),
    ]
    print(format_table(("quantity", "value"), rows))
    return 0


def _command_store_info(args: argparse.Namespace, ArrayStore) -> int:
    if args.url:
        import json as _json

        with _open_client(args.url) as client:
            info = client.info(args.store)
        print(_json.dumps(info, indent=2, sort_keys=True))
        return 0
    return _print_store_info(ArrayStore.open(args.store))


def _command_store_ls(args: argparse.Namespace, ArrayStore) -> int:
    store = ArrayStore.open(args.store)
    rows = []
    for record in store.chunk_records():
        vrange = record.stats.get("variogram_range", float("nan"))
        rows.append(
            (
                ",".join(str(i) for i in record.grid_index),
                "x".join(str(s) for s in record.shape),
                record.codec,
                str(record.nbytes),
                f"{record.compression_ratio:.2f}",
                f"{vrange:.2f}" if np.isfinite(vrange) else "-",
            )
        )
    print(
        format_table(
            ("chunk", "shape", "codec", "bytes", "CR", "vrange"), rows
        )
    )
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    registry = default_registry(gaussian_shape=(args.size, args.size))
    parallel = _parallel(args.workers)
    driver = _FIGURES[args.number]
    output = driver(registry=registry, seed=args.seed, parallel=parallel)
    for panel, series_list in output.items():
        title = f"Figure {args.number} — {panel}"
        if args.markdown:
            print(series_to_markdown(series_list, title=title))
            print()
            continue
        print(f"\n=== {title} ===")
        rows = []
        for series in sorted(series_list, key=lambda s: (s.compressor, s.error_bound)):
            if series.fit is None:
                rows.append((series.compressor, f"{series.error_bound:g}", "-", "-", "-", series.n_points))
            else:
                rows.append(
                    (
                        series.compressor,
                        f"{series.error_bound:g}",
                        series.fit.alpha,
                        series.fit.beta,
                        series.fit.r_squared,
                        series.fit.n_points,
                    )
                )
        print(format_table(("compressor", "bound", "alpha", "beta", "R^2", "points"), rows))
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint_command

    return run_lint_command(args)


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import ArrayServer, ServerConfig

    config = ServerConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        cache_nbytes=args.cache_mb * 1024 * 1024,
        decode_workers=args.decode_workers,
        max_body_nbytes=args.max_body_mb * 1024 * 1024,
        access_log=args.access_log,
        access_log_max_bytes=args.access_log_max_bytes,
        access_log_backups=args.access_log_backups,
        slow_requests_per_route=args.slow_requests,
    )

    async def run() -> None:
        server = ArrayServer(config)
        await server.start()
        print(f"serving {config.root} at {server.url}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""

    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "compress": _command_compress,
        "stats": _command_stats,
        "experiment": _command_experiment,
        "figure": _command_figure,
        "store": _command_store,
        "serve": _command_serve,
        "lint": _command_lint,
        "profile": _command_profile,
        "top": _command_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
