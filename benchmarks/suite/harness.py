"""Run orchestration: the measuring parent and the exec'd run process.

``run`` (the default command) never measures in its own process.  Each
run executes in a fresh ``python -m benchmarks.suite _run-process``
child, exec'd rather than forked, so the child's ``VmHWM`` measures that
run alone.  The child starts its own session; whatever it leaves behind
(a server child, pool workers) is killed and waited for when it exits.

An untraced run gives the end-to-end metrics; it sets the workload up
``SETUP_REPEATS`` times and reports the median as ``setup_s``.
``--trace`` makes one untraced and one traced run on the same seed, each
set up once and measured for half the time: the traced run reports the
per-layer ledger, and the ratio of the two runs' throughput is the
tracing overhead.  Every run leaves one raw JSON file holding every
sample under ``OUT/raw/<workload>/<seed>-<rep>.json``; a traced run also
writes ``OUT/trace/<workload>/trace.json`` (Chrome trace events, opens
in Perfetto) and ``layers.json``.

The parent imports only the standard library, so a checkout without the
program source fails fast, with a message and a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / ".bench_out"
CHILD_COMMAND = "_run-process"

#: Whole-invocation budget; each invocation must end within 180 s.
BUDGET_S = 170.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The run process's environment: one BLAS thread (the load shape is one
#: process with at most two threads) and the platform-default start
#: method, so the span wrappers reach forked pool workers.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunFailed(RuntimeError):
    """A run process crashed, timed out or wrote no result."""


def load_spec() -> Dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("MP_START_METHOD", None)
    env.update(CHILD_ENV)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite [run]",
        description="Run one benchmark workload and print its metrics.",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured duration (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer ledger instead of the end-to-end metrics",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT),
        help="directory for raw run files and traces (default: .bench_out)",
    )
    # Self-test hook: the checker compares against a deliberately wrong
    # reference, so every checked operation must count as failed.
    parser.add_argument(
        "--corrupt-reference", action="store_true", help=argparse.SUPPRESS
    )
    return parser


def run_command(argv: List[str]) -> int:
    args = _run_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"benchmark: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("benchmark: --seed must be >= 0", file=sys.stderr)
        return 2
    seconds = float(args.seconds or spec["run_seconds"])
    out = Path(args.out).resolve()
    deadline = time.perf_counter() + BUDGET_S

    try:
        if args.trace:
            # Two half-length runs with one set-up each keep a traced
            # invocation as long as an untraced one; the ledger is per
            # iteration, so the shorter window does not change its scale.
            runs = [
                _run_process(args, seconds / 2, out, traced=traced, setups=1, deadline=deadline)
                for traced in (False, True)
            ]
        else:
            runs = [_run_process(args, seconds, out, traced=False, setups=SETUP_REPEATS,
                                 deadline=deadline)]
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        untraced, traced = runs
        rate = "throughput_mbps"
        metrics = traced["per_layer"]
        metrics["obs.tracing_overhead"]["value"] = (
            untraced["end_to_end"][rate]["value"]
            / traced["end_to_end"][rate]["value"]
            - 1.0
        )
        # The untraced half is shorter and set up once: keep it out of
        # the end-to-end tables.
        untraced["trace_baseline"] = True
        for run in runs:
            _write_json(Path(run["raw_path"]), run)
        _write_json(out / "trace" / args.workload / "layers.json", metrics)
    else:
        metrics = runs[0]["end_to_end"]

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for message in run["failures"]:
            print(f"FAILED: {message}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _next_raw_path(raw_dir: Path, seed: int) -> Path:
    raw_dir.mkdir(parents=True, exist_ok=True)
    rep = 0
    while (raw_dir / f"{seed}-{rep}.json").exists():
        rep += 1
    return raw_dir / f"{seed}-{rep}.json"


def _run_process(
    args: argparse.Namespace, seconds: float, out: Path, *, traced: bool, setups: int,
    deadline: float,
) -> Dict:
    raw_path = _next_raw_path(out / "raw" / args.workload, args.seed)
    # Claim the name now: the two runs of a traced invocation are
    # numbered before either child writes its file.
    raw_path.touch()
    tmp = out / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}-{int(traced)}"
    command = [
        sys.executable, "-m", "benchmarks.suite", CHILD_COMMAND,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--setups", str(setups),
        "--raw", str(raw_path),
        "--tmp", str(tmp),
    ]
    if traced:
        command += ["--trace-dir", str(out / "trace" / args.workload)]
    if args.corrupt_reference:
        command.append("--corrupt-reference")

    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=sys.stderr, start_new_session=True
    )
    try:
        code: Optional[int] = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _stop_session(proc)
    try:
        if code is None:
            raise RunFailed(f"{args.workload} run exceeded the {BUDGET_S:.0f} s budget")
        if code != 0:
            raise RunFailed(f"{args.workload} run process exited with code {code}")
        try:
            with open(raw_path, encoding="utf-8") as handle:
                run = json.load(handle)
        except ValueError as exc:
            raise RunFailed(f"{args.workload} run wrote no result: {exc}") from exc
    except RunFailed:
        raw_path.unlink()
        raise
    run["raw_path"] = str(raw_path)
    return run


def _stop_session(proc: subprocess.Popen) -> None:
    """Kill the run's whole session and wait until every member is gone."""

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    give_up = time.perf_counter() + 10.0
    while time.perf_counter() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


#: Index of ``steal`` among the ``cpu`` counters of ``/proc/stat``.
STEAL = 7


def _cpu_jiffies() -> List[int]:
    """The machine-wide CPU time counters of ``/proc/stat``."""

    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".part")
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    os.replace(partial, path)


# ----------------------------------------------------------------------
# the run process
# ----------------------------------------------------------------------
def _child_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"python -m benchmarks.suite {CHILD_COMMAND}")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--raw", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--corrupt-reference", action="store_true")
    return parser


def child_command(argv: List[str]) -> int:
    """Set up, measure and check one workload; write its raw JSON file."""

    args = _child_parser().parse_args(argv)
    from repro.obs.trace import Tracer, install_tracer

    from benchmarks.suite import layers, workloads

    spec = load_spec()
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        tmp=Path(args.tmp),
        corrupt=args.corrupt_reference,
        trace_dir=trace_dir,
    )
    tracer = Tracer("benchmark") if trace_dir is not None else None
    cpu_before = _cpu_jiffies()
    with install_tracer(tracer), layers.wrapped(enabled=tracer is not None):
        measurement = workloads.execute(args.workload, ctx, repeats=args.setups)
    cpu = [after - before for before, after in zip(cpu_before, _cpu_jiffies())]

    values = measurement.end_to_end()
    for name, value in values.items():
        if not math.isfinite(value):
            ctx.checks.record(False, f"{name} was not measured")
            values[name] = 0.0
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": tracer is not None,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "failures": ctx.checks.failures,
        "end_to_end": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec["end_to_end"]
        },
        "samples": measurement.samples,
        "platform": {
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
            "machine": os.uname().machine,
            # Share of the machine's CPU time the hypervisor gave to other
            # guests during the run: a run with a high share is suspect.
            "cpu_steal_share": cpu[STEAL] / sum(cpu) if sum(cpu) else 0.0,
        },
    }
    if tracer is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans = tracer.spans()
        if measurement.server_spans_path is not None:
            spans = layers.load_span_tuples(measurement.server_spans_path)
        else:
            tracer.write_chrome_trace(str(trace_dir / "trace.json"))
        ledger = layers.layer_metrics(spans, measurement)
        run["per_layer"] = {
            metric["name"]: {"value": ledger[metric["name"]], "unit": metric["unit"]}
            for metric in spec["per_layer"]
        }
    _write_json(Path(args.raw), run)
    return 0
