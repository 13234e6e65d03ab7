"""Which functions in ``src/repro`` does no program surface run?

Drives every program surface of the package in one process while
``sys.setprofile`` and ``threading.setprofile`` record each Python
function entered:

* every ``repro`` subcommand (compress in its 2D, raw, relative-bound,
  volume, halo, streamed and traced forms; ``stats``; ``experiment`` on
  all five datasets; ``figure 3``-``7``; ``profile``; ``lint``; ``top``;
  ``store put/append/get/compact/info/ls`` on local directories and
  through ``--url``; ``serve``);
* a live :class:`~repro.serve.server.ThreadedServer`, hit on every route;
* every script under ``examples/``.

Pool workers are forked, and each forked child reports what it ran when
it exits, so worker-side code counts too.  Pool workers live until their
pool shuts down, so the driver shuts every shared pool down before it
reads the reports.

Every ``def`` in ``src/repro`` whose body was never entered, and that is
not nested in another such def, is checked against the allowlist
(``tools/reachability_allowlist.txt``): one ``path::qualname`` per line,
then the reason it stays.  The run exits 1 when an unreached def is not
on the allowlist, when an entry carries no reason, or when an entry
names a def that does not exist; an entry whose def was reached is only
reported.

Run from the repository root::

    PYTHONPATH=src python tools/reachability.py

It takes about 30 s on two CPUs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import multiprocessing
import multiprocessing.util
import os
import runpy
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
EXAMPLES = os.path.join(ROOT, "examples")
ALLOWLIST = os.path.join(ROOT, "tools", "reachability_allowlist.txt")

#: ``(filename, first line)`` of every code object entered.
CodeKey = Tuple[str, int]


# ---- what is defined --------------------------------------------------


@dataclass(frozen=True)
class Def:
    """One ``def`` in the package."""

    path: str  # relative to src/, e.g. "repro/cli.py"
    qualname: str  # "Class.method", "outer.inner"
    first: int  # first line of the code object (first decorator)
    last: int
    parent: Optional[str]  # the enclosing def's ident, if nested in one

    @property
    def ident(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def collect_defs() -> List[Def]:
    """Every function and method defined under ``src/repro``."""

    found: List[Def] = []
    base = os.path.dirname(PACKAGE)
    for folder, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            _walk(tree, os.path.relpath(path, base), [], None, found)
    return found


def _walk(node: ast.AST, path: str, scope: List[str], parent: Optional[str],
          found: List[Def]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            entry = Def(path, ".".join(scope + [child.name]), first, child.end_lineno, parent)
            if not _is_abstract(child):  # its body never runs, by design
                found.append(entry)
            _walk(child, path, scope + [child.name], entry.ident, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, path, scope + [child.name], parent, found)
        else:
            _walk(child, path, scope, parent, found)


def _is_abstract(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


# ---- what runs ----------------------------------------------------------


class Recorder:
    """The code objects entered in this process and its forked children."""

    def __init__(self) -> None:
        self.codes: Set = set()
        self.child_dir = tempfile.mkdtemp(prefix="reachability-")

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def start(self) -> None:
        multiprocessing.util.register_after_fork(self, Recorder._in_child)
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def _in_child(self) -> None:
        # Runs in every forked multiprocessing child, after the child has
        # dropped the parent's finalizers; the child reports what it ran
        # from multiprocessing's exit handler, which pool workers reach.
        # The inherited set is kept: the fork's own hooks ran in the
        # child before this one and are recorded only there.
        sys.setprofile(self._hook)
        threading.setprofile(self._hook)
        multiprocessing.util.Finalize(None, self._dump_child, exitpriority=0)

    def _dump_child(self) -> None:
        self.stop()
        codes = set(self.codes)  # a copy: other threads may still be running
        path = os.path.join(self.child_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sorted(_keys(codes)), handle)

    def entered(self) -> Set[CodeKey]:
        keys = set(_keys(set(self.codes)))
        for name in os.listdir(self.child_dir):
            with open(os.path.join(self.child_dir, name), encoding="utf-8") as handle:
                keys.update((path, line) for path, line in json.load(handle))
        return keys


def _keys(codes) -> Iterator[CodeKey]:
    for code in codes:
        if code.co_filename.startswith(PACKAGE):
            yield os.path.relpath(code.co_filename, os.path.dirname(PACKAGE)), code.co_firstlineno


# ---- the surfaces ------------------------------------------------------


def _cli(*argv, expect: int = 0) -> None:
    from repro import cli

    try:
        code = cli.main([str(arg) for arg in argv])
    except SystemExit as exc:  # argparse errors and usage exits
        code = exc.code
    if (code or 0) != expect:
        raise RuntimeError(f"repro {' '.join(map(str, argv))} exited {code}")


def _fields(work: str) -> Dict[str, str]:
    import numpy as np

    from repro.datasets.gaussian import generate_gaussian_field
    from repro.datasets.miranda import generate_miranda_like_volume

    paths = {name: os.path.join(work, name) for name in
             ("f2.npy", "f3.npy", "more3.npy", "raw.f32", "more2.npy")}
    np.save(paths["f2.npy"], generate_gaussian_field((64, 64), 6.0, seed=1))
    np.save(paths["more2.npy"], generate_gaussian_field((16, 64), 6.0, seed=2))
    np.save(paths["f3.npy"], generate_miranda_like_volume((32, 32, 32), seed=0))
    np.save(paths["more3.npy"], generate_miranda_like_volume((16, 32, 32), seed=1))
    generate_gaussian_field((48, 40), 3.0, seed=3).astype(np.float32).tofile(paths["raw.f32"])
    return paths


def drive_commands(work: str, fields: Dict[str, str]) -> None:
    f2, f3, raw = fields["f2.npy"], fields["f3.npy"], fields["raw.f32"]
    out = os.path.join(work, "out")
    os.makedirs(out)
    for codec in ("sz", "zfp", "mgard"):
        _cli("compress", f2, "--compressor", codec)
        _cli("compress", f3, "--volume", "--tile", 16, "--compressor", codec, "--baseline")
        _cli("compress", f3, "--volume", "--tile", 16, "--compressor", codec, "--halo",
             "--workers", 2)
    _cli("compress", raw, "--raw-shape", 48, 40, "--mode", "rel", "--error-bound", 1e-2)
    _cli("compress", f3, "--slice-axis", 1)
    _cli("compress", f3, "--volume", "--tile", 16, "--stream", "--halo")
    _cli("compress", f3, "--volume", "--tile", 16, "--stream", "--compressor", "zfp")
    _cli("compress", f3, "--volume", "--tile", 16, "--halo", "--trace-out",
         os.path.join(out, "trace.json"))
    _cli("stats", f2, "--window", 16)
    _cli("stats", raw, "--raw-shape", 48, 40, "--window", 16)
    for dataset in ("gaussian-single", "gaussian-multi", "gaussian-nonstationary", "miranda",
                    "miranda-volume"):
        _cli("experiment", dataset, "--output", os.path.join(out, f"{dataset}.csv"),
             "--size", 32, "--bounds", 1e-3, 1e-2)
    _cli("experiment", "gaussian-single", "--output", os.path.join(out, "pool.csv"),
         "--size", 32, "--bounds", 1e-3, "--workers", 2, "--skip-local-stats")
    for number in ("3", "4", "5", "6", "7"):
        _cli("figure", number, "--size", 32, "--markdown")
    _cli("figure", "3", "--size", 32, "--workers", 2)
    # One whole-volume zfp tile: long enough for the sampler to take samples,
    # and its decode reads a run-length (`H`) entropy stream.
    _cli("profile", "--out", os.path.join(out, "prof.json"), "--", "compress", f3,
         "--volume", "--tile", 32, "--compressor", "zfp")
    _cli("lint", os.path.join(ROOT, "src"))
    _cli("lint", "--format", "json", os.path.join(PACKAGE, "cli.py"))
    _cli("lint", "--list-rules")
    # Code that breaks every rule: the lint rules' finding paths.
    fixtures = os.path.join(ROOT, "tests", "analysis", "fixtures")
    _cli("lint", fixtures, expect=1)
    _cli("lint", "--format", "json", fixtures, expect=1)

    stores = os.path.join(work, "stores")
    for name, extra in (
        ("sz", ("--field", f3, "--chunk", 16)),
        ("best", ("--field", f3, "--chunk", 16, "--codec", "best", "--halo")),
        ("pool", ("--field", f3, "--chunk", 16, "--halo", "--workers", 2)),
        ("stream", ("--field", f3, "--chunk", 16, "--stream", "--halo")),
        ("plain2d", ("--field", f2, "--chunk", 32, "--no-chunk-stats")),
        ("dataset", ("--dataset", "miranda-volume", "--chunk", 16, "--codec", "best:sz+zfp")),
        ("raw", ("--field", raw, "--raw-shape", 48, 40, "--chunk", 16, "--codec", "zfp")),
    ):
        _cli("store", "put", os.path.join(stores, name), *extra)
    _cli("store", "put", os.path.join(stores, "sz"), "--field", f3, "--chunk", 16,
         "--overwrite")
    for name in ("sz", "best", "pool"):
        path = os.path.join(stores, name)
        _cli("store", "get", path, "--region", "0:20,4:30,5", "--output",
             os.path.join(out, f"{name}.npy"))
        _cli("store", "get", path, "--region", "0:32,0:32", "--workers", 2)
        _cli("store", "append", path, "--field", fields["more3.npy"])
        _cli("store", "compact", path)
        _cli("store", "info", path)
        _cli("store", "ls", path)
    _cli("store", "append", os.path.join(stores, "plain2d"), "--field", fields["more2.npy"])
    _cli("store", "get", os.path.join(stores, "plain2d"))


def drive_server(work: str, fields: Dict[str, str]) -> None:
    import numpy as np

    from repro.serve.client import ServeError, StoreClient
    from repro.serve.server import ServerConfig, ThreadedServer

    root = os.path.join(work, "served")
    os.makedirs(root)
    f2, f3 = fields["f2.npy"], fields["f3.npy"]
    config = ServerConfig(root=root, port=0, cache_nbytes=1 << 20,
                          access_log=os.path.join(work, "access.log"),
                          access_log_max_bytes=4096, access_log_backups=2)
    with ThreadedServer(config) as served, StoreClient(served.url) as client:
        url = served.url
        _cli("store", "put", "vol", "--url", url, "--field", f3, "--chunk", 16, "--halo")
        _cli("store", "put", "flat", "--url", url, "--field", f2, "--chunk", 32,
             "--codec", "best")
        _cli("store", "get", "vol", "--url", url, "--region", "0:20,0:20,3")
        _cli("store", "get", "vol", "--url", url, "--region", "0:20,0:20", "--client-decode",
             "--output", os.path.join(work, "region.npy"))
        _cli("store", "append", "vol", "--url", url, "--field", fields["more3.npy"])
        _cli("store", "info", "vol", "--url", url)
        _cli("store", "compact", "vol", "--url", url)
        client.put("api", np.load(f2), codec="zfp", chunk=32)
        client.append("api", np.load(fields["more2.npy"]))
        client.get("api", region=(slice(0, 40), slice(8, 60)))
        client.get("api", region=(slice(0, 40), slice(8, 60)), decode="client")
        client.info("api")
        client.compact("api")
        client.ls()
        client.stats()
        client.healthz()
        client.debug_vars(window=600)
        client.debug_requests()
        payload, etag = client.chunk("api", 0)
        client.chunk("api", 0, etag=etag)
        for path in ("/metrics", "/debug", "/debug/vars", "/debug/profile?seconds=0.2",
                     "/ds/api/info", "/nope", "/ds/missing", "/ds/api/chunk/999"):
            _http(url + path)
        _http(url + "/ds/api/compact", method="GET")
        with contextlib.suppress(ServeError):
            client.get("missing")
        _cli("top", url, "--iterations", 1)
        del payload


def _http(url: str, method: str = "GET") -> None:
    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            response.read()
    except urllib.error.HTTPError as exc:
        exc.read()
        exc.close()


def drive_serve_command(work: str) -> None:
    """``repro serve`` in a forked child, stopped by SIGINT as from a terminal."""

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    root = os.path.join(work, "served")
    context = multiprocessing.get_context("fork")
    child = context.Process(
        target=_cli, args=("serve", root, "--port", port, "--cache-mb", 4,
                           "--slow-requests", 0))
    child.start()
    url = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            _http(url + "/healthz")
            break
        except OSError:
            time.sleep(0.1)
    _http(url + "/ds/vol?region=0:8,0:8,0:8")
    os.kill(child.pid, signal.SIGINT)
    child.join(timeout=30)
    if child.exitcode != 0:
        raise RuntimeError(f"repro serve exited {child.exitcode}")


#: Arguments that keep each example small; the code paths are the same.
EXAMPLE_ARGS = {
    "error_bound_sensitivity.py": ["--size", "48"],
    "gaussian_field_study.py": ["--size", "32", "--workers", "2"],
    "miranda_study.py": ["--size", "32", "--depth", "8", "--slices", "2"],
}


def drive_examples() -> None:
    for name in sorted(os.listdir(EXAMPLES)):
        if not name.endswith(".py"):
            continue
        saved = sys.argv
        sys.argv = [name] + EXAMPLE_ARGS.get(name, [])
        try:
            runpy.run_path(os.path.join(EXAMPLES, name), run_name="__main__")
        finally:
            sys.argv = saved


def drive_everything() -> None:
    work = tempfile.mkdtemp(prefix="reachability-work-")
    cwd = os.getcwd()
    try:
        os.chdir(work)  # examples and commands that write relative paths
        fields = _fields(work)
        drive_commands(work, fields)
        drive_server(work, fields)
        drive_serve_command(work)
        drive_examples()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


# ---- the verdict -------------------------------------------------------


def load_allowlist(path: str) -> Tuple[Dict[str, str], List[str]]:
    """``{ident: reason}`` and the malformed lines."""

    entries: Dict[str, str] = {}
    problems: List[str] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            ident, _, reason = text.partition(" ")
            if not reason.strip():
                problems.append(f"{path}:{number}: {ident} gives no reason")
            entries[ident] = reason.strip()
    return entries, problems


def unreached(defs: List[Def], entered: Set[CodeKey]) -> List[Def]:
    """Defs never entered whose enclosing def (if any) was entered."""

    missed = {d.ident: d for d in defs if (d.path, d.first) not in entered}
    return [d for d in missed.values() if d.parent not in missed]


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.utils.parallel import shutdown_pools

    os.environ["MP_START_METHOD"] = "fork"  # children must inherit the hook
    defs = collect_defs()
    recorder = Recorder()
    started = time.perf_counter()
    sink = io.StringIO()
    recorder.start()
    try:
        with contextlib.redirect_stdout(sink):
            drive_everything()
    finally:
        # Shared pool workers report what they ran when they exit, so
        # they must exit before the reports are read.
        shutdown_pools()
        recorder.stop()
    try:
        entered = recorder.entered()
    finally:
        shutil.rmtree(recorder.child_dir, ignore_errors=True)
    elapsed = time.perf_counter() - started
    missed = unreached(defs, entered)

    allowed, problems = load_allowlist(ALLOWLIST)
    known = {d.ident for d in defs}
    problems += [f"allowlist names no def: {ident}" for ident in allowed if ident not in known]
    missed_ids = {d.ident for d in missed}
    reached = sorted(ident for ident in allowed if ident in known and ident not in missed_ids)
    offenders = [d for d in missed if d.ident not in allowed]

    print(f"drove every surface in {elapsed:.1f} s; {len(defs)} defs, "
          f"{len(missed)} unreached ({sum(d.lines for d in missed)} lines), "
          f"{len(missed) - len(offenders)} of them allowlisted")
    for d in sorted(offenders, key=lambda d: d.ident):
        print(f"  UNREACHED {d.ident} ({d.lines} lines)")
    for ident in reached:
        print(f"  note: allowlisted but reached this run: {ident}")
    for problem in problems:
        print(f"  ERROR: {problem}")
    return 1 if offenders or problems else 0


if __name__ == "__main__":
    sys.exit(main())
