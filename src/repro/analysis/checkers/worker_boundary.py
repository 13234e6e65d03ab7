"""worker-boundary: what may cross the ``utils/parallel.py`` process line.

Work reaches worker processes through
:func:`repro.utils.parallel.parallel_map`, a pool's ``.map``, or
:meth:`repro.utils.schedule.WaveExecutor.run_waves`, whose first argument
is the worker every task of every wave runs through.  Whatever is
submitted must pickle: lambdas and closures fail outright (or, with fork
tricks, silently copy the enclosing frame per task).  The repo's worker
protocol is therefore *module-level functions over self-contained task
tuples* (``_encode_tile`` / ``_decode_chunk``), and workers return the
documented payload — a result tuple, a named result object or an entropy
context — never a bare ndarray whose meaning the scheduler has to guess.

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
  same file): ``return np.<...>(...)`` /
  ``return <x>.astype(...)`` bare-ndarray returns where the protocol
  expects the documented result tuple or a named result object.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.core import Checker, FileContext, Finding, dotted_name

__all__ = ["WorkerBoundaryChecker"]

#: Calls whose first argument is the worker callable.
_SUBMIT_FUNCS = {"parallel_map", "run_waves"}
_PARALLEL_MODULE_SUFFIX = os.path.join("utils", "parallel.py")


def _tail(name: Optional[str]) -> str:
    return "" if name is None else name.rsplit(".", 1)[-1]


class WorkerBoundaryChecker(Checker):
    name = "worker-boundary"
    description = (
        "only picklable module-level callables cross the parallel_map "
        "worker boundary, and workers return the documented payload tuples"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        module_funcs: Dict[str, ast.AST] = {
            node.name: node
            for node in ctx.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested_funcs: Set[str] = {
            node.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and ctx.enclosing_function(node) is not None
        }

        worker_names: Set[str] = set()
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
                continue
            if func_tail == "SharedMemory":
                findings.append(
                    ctx.finding(
                        self.name,
                        node,
                        "direct SharedMemory construction; pass arrays by "
                        "value in the task and return them in the worker's "
                        "result, which the executor pickles",
                    )
                )
                continue
            if func_tail in _SUBMIT_FUNCS and node.args:
                findings.extend(
                    self._check_submitted(ctx, node.args[0], worker_names,
                                          nested_funcs)
                )
            elif func_tail == "submit" and node.args:
                findings.extend(
                    self._check_submitted(ctx, node.args[0], worker_names,
                                          nested_funcs)
                )
            elif (
                func_tail == "map"
                and isinstance(node.func, ast.Attribute)
                and node.args
            ):
                # Pool-style `.map` submission (WorkerPool / Executor).
                # The builtin `map(...)` is a plain Name call and stays
                # out of scope.
                findings.extend(
                    self._check_submitted(ctx, node.args[0], worker_names,
                                          nested_funcs)
                )

        for name in sorted(worker_names):
            worker = module_funcs.get(name)
            if worker is None:
                continue
            findings.extend(self._check_worker_returns(ctx, worker))
        return findings

    def _check_submitted(
        self,
        ctx: FileContext,
        callable_arg: ast.AST,
        worker_names: Set[str],
        nested_funcs: Set[str],
    ) -> Iterable[Finding]:
        if isinstance(callable_arg, ast.Lambda):
            yield ctx.finding(
                self.name,
                callable_arg,
                "lambda submitted to the worker pool; lambdas don't pickle "
                "across the process boundary — use a module-level function "
                "over a self-contained task tuple",
            )
            return
        if (
            isinstance(callable_arg, ast.Call)
            and _tail(dotted_name(callable_arg.func)) == "partial"
            and callable_arg.args
        ):
            yield from self._check_submitted(
                ctx, callable_arg.args[0], worker_names, nested_funcs
            )
            return
        if isinstance(callable_arg, ast.Name):
            if callable_arg.id in nested_funcs:
                yield ctx.finding(
                    self.name,
                    callable_arg,
                    f"closure {callable_arg.id!r} submitted to the worker "
                    "pool; nested functions don't pickle (and capture their "
                    "enclosing frame) — hoist it to module level",
                )
            else:
                worker_names.add(callable_arg.id)

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
