"""Launcher of the benchmark's ``repro serve`` child process.

    python -m benchmarks.suite.serve_child ROOT [--cache-mb N] [--trace-out DIR]

Calls ``repro.cli.main(["serve", ROOT, "--port", "0", ...])``; the
server prints its URL on the first stdout line.  Timed and traced runs
start the server the same way.  With ``--trace-out`` the launcher also
installs a global tracer and the layer wrappers and passes
``--slow-requests 0``, so request spans reach the global tracer instead
of per-request capture tracers; on SIGTERM it writes the spans to
``DIR/server-spans.json`` and a Chrome trace to ``DIR/trace.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional


def _interrupt(signum, frame) -> None:
    # SIGINT is what ``asyncio.run`` turns into a clean cancellation of
    # the serving task (the server then closes its connections and pool).
    signal.raise_signal(signal.SIGINT)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite.serve_child")
    parser.add_argument("root")
    parser.add_argument("--cache-mb", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro import cli
    from repro.obs.trace import Tracer, install_tracer

    from benchmarks.suite import layers

    serve_argv = ["serve", args.root, "--port", "0"]
    if args.cache_mb is not None:
        serve_argv += ["--cache-mb", str(args.cache_mb)]
    signal.signal(signal.SIGTERM, _interrupt)
    if args.trace_out is None:
        return cli.main(serve_argv)

    tracer = Tracer("repro serve")
    try:
        with install_tracer(tracer), layers.wrapped():
            return cli.main(serve_argv + ["--slow-requests", "0"])
    finally:
        out = Path(args.trace_out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "server-spans.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.export_tuples(), handle, default=repr)
        tracer.write_chrome_trace(str(out / "trace.json"))


if __name__ == "__main__":
    sys.exit(main())
