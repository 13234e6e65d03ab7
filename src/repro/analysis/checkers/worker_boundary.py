"""worker-boundary: what may cross the ``utils/parallel.py`` process line.

Work reaches worker processes through
:func:`repro.utils.parallel.parallel_map`, a pool's ``.map``, or
:meth:`repro.utils.schedule.WaveExecutor.run_waves`, whose first argument
is the worker every task of every wave runs through.  Whatever is
submitted must pickle: lambdas and closures fail outright (or, with fork
tricks, silently copy the enclosing frame per task).  The repo's worker
protocol is therefore *module-level functions over self-contained task
tuples* (the tile workers ``encode_tile`` / ``decode_tile`` of
:mod:`repro.compressors.tiles`, which every tiled path imports and
submits), and workers return the documented payload — a result tuple, a
named result object or an entropy context — never a bare ndarray whose
meaning the scheduler has to guess.

Bulk arrays cross the boundary by value: a task carries its input
arrays and the worker returns its output arrays through the executor's
pickle channel.  There is no shared-memory transport, so a hand-built
``SharedMemory`` segment — with its naming, unlink-on-every-exit-path
and platform fallback burdens — is flagged wherever it appears.

Flags:

* a ``lambda`` or a nested (closure) function passed as the worker to
  ``parallel_map`` / ``WaveExecutor.run_waves`` / a ``WorkerPool``'s
  ``.map`` / ``Executor.submit``;
* ``functools.partial`` over such a callable;
* ``ProcessPoolExecutor`` construction outside ``utils/parallel.py`` —
  parallelism routes through the one wrapper so worker hygiene has a
  single enforcement point;
* any ``SharedMemory`` construction — arrays travel by value in the
  task and its result;
* inside a worker function (a module-level function submitted in the
  same file, or one the submitting file imports from another linted
  file, as every tiled path imports the tile workers):
  ``return np.<...>(...)`` /
  ``return <x>.astype(...)`` bare-ndarray returns where the protocol
  expects the documented result tuple or a named result object.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Checker, FileContext, Finding, ProjectContext, dotted_name

__all__ = ["WorkerBoundaryChecker"]

#: Calls whose first argument is the worker callable.
_SUBMIT_FUNCS = {"parallel_map", "run_waves"}
_PARALLEL_MODULE_SUFFIX = os.path.join("utils", "parallel.py")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _tail(name: Optional[str]) -> str:
    return "" if name is None else name.rsplit(".", 1)[-1]


def _submitted(ctx: FileContext) -> Iterator[ast.AST]:
    """The callable of every pool submission in ``ctx``, partials peeled off."""

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func_tail = _tail(dotted_name(node.func))
        # Pool-style `.map` submission (WorkerPool / Executor); the
        # builtin `map(...)` is a plain Name call and stays out of scope.
        if func_tail in _SUBMIT_FUNCS or func_tail == "submit" or (
            func_tail == "map" and isinstance(node.func, ast.Attribute)
        ):
            arg = node.args[0]
            while isinstance(arg, ast.Call) and arg.args and (
                _tail(dotted_name(arg.func)) == "partial"
            ):
                arg = arg.args[0]
            yield arg


def _nested_funcs(ctx: FileContext) -> Set[str]:
    return {
        node.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, _DEFS) and ctx.enclosing_function(node) is not None
    }


def _module_def(ctx: FileContext, name: str) -> Optional[ast.AST]:
    for node in ctx.tree.body:
        if isinstance(node, _DEFS) and node.name == name:
            return node
    return None


def _resolve(
    project: ProjectContext, ctx: FileContext, name: str
) -> Optional[Tuple[FileContext, ast.AST]]:
    """The module-level ``def`` that ``name`` means in ``ctx``: defined
    there, or imported (``from package.module import name``) from another
    linted file."""

    worker = _module_def(ctx, name)
    if worker is not None:
        return ctx, worker
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        module = os.sep + os.path.join(*node.module.split("."))
        for alias in node.names:
            if (alias.asname or alias.name) != name:
                continue
            for other in project.files:
                if os.path.splitext(os.path.abspath(other.path))[0].endswith(module):
                    worker = _module_def(other, alias.name)
                    if worker is not None:
                        return other, worker
    return None


class WorkerBoundaryChecker(Checker):
    name = "worker-boundary"
    description = (
        "only picklable module-level callables cross the parallel_map "
        "worker boundary, and workers return the documented payload tuples"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func_tail = _tail(dotted_name(node.func))
            if func_tail == "ProcessPoolExecutor" and not ctx.path.endswith(
                _PARALLEL_MODULE_SUFFIX
            ):
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        "direct ProcessPoolExecutor use; route parallelism "
                        "through utils/parallel.parallel_map so worker "
                        "hygiene has one enforcement point",
                    )
                )
            elif func_tail == "SharedMemory":
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        "direct SharedMemory construction; pass arrays by "
                        "value in the task and return them in the worker's "
                        "result, which the executor pickles",
                    )
                )

        nested_funcs = _nested_funcs(ctx)
        for callable_arg in _submitted(ctx):
            if isinstance(callable_arg, ast.Lambda):
                findings.append(
                    ctx.finding(
                        self.name,
                        callable_arg,
                        "lambda submitted to the worker pool; lambdas don't pickle "
                        "across the process boundary — use a module-level function "
                        "over a self-contained task tuple",
                    )
                )
            elif isinstance(callable_arg, ast.Name) and callable_arg.id in nested_funcs:
                findings.append(
                    ctx.finding(
                        self.name,
                        callable_arg,
                        f"closure {callable_arg.id!r} submitted to the worker "
                        "pool; nested functions don't pickle (and capture their "
                        "enclosing frame) — hoist it to module level",
                    )
                )
        return findings

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        """Every submitted worker's returns, checked once in the file that
        defines it, wherever it is submitted from."""

        workers = {}
        for ctx in project.files:
            nested_funcs = _nested_funcs(ctx)
            for arg in _submitted(ctx):
                if isinstance(arg, ast.Name) and arg.id not in nested_funcs:
                    found = _resolve(project, ctx, arg.id)
                    if found is not None:
                        workers[(found[0].path, found[1].name)] = found
        for key in sorted(workers):
            yield from self._check_worker_returns(*workers[key])

    def _check_worker_returns(
        self, ctx: FileContext, worker: ast.AST
    ) -> Iterable[Finding]:
        for node in ast.walk(worker):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            is_bare_array = False
            if isinstance(value, ast.Call):
                name = dotted_name(value.func) or ""
                if name.split(".", 1)[0] in ("np", "numpy"):
                    is_bare_array = True
                if isinstance(value.func, ast.Attribute) and value.func.attr == (
                    "astype"
                ):
                    is_bare_array = True
            if is_bare_array:
                yield ctx.finding(
                    self.name,
                    node,
                    f"worker {getattr(worker, 'name', '?')} returns a bare "
                    "ndarray expression; the worker protocol expects the "
                    "documented payload tuple (or a named result object) so "
                    "the scheduler never has to guess array meaning",
                )
