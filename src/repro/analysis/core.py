"""Checker driver for the repo-specific invariant lint (``repro lint``).

Generic linters cannot see this repository's hard-won invariants — the
finite-mask-before-int-cast discipline that PR 2's ZFP bug taught, the
serve layer's never-block-the-event-loop rule, the container-tag /
golden-fixture pairing of the binary formats.  This module is the small
framework the individual checkers (:mod:`repro.analysis.checkers`) plug
into:

* :class:`FileContext` — one parsed source file with a parent map and
  nearest-enclosing-function tracking, so checkers can ask structural
  questions (``is this call lexically inside an async def?``) without
  re-walking the tree themselves.
* :class:`ProjectContext` — the full set of linted files plus lazy access
  to the golden fixture blobs under ``tests/**/data/`` for cross-file
  checks (the format-version checker).
* Suppressions — ``# repro-lint: disable=RULE -- reason`` on the flagged
  line (or alone on the line above), ``disable-file=RULE -- reason``
  anywhere for a whole file.  A suppression **must carry a reason** after
  ``--``; one without a reason (or naming an unknown rule) is itself
  reported as a ``bad-suppression`` finding and does not suppress.
* :func:`run_lint` — collect files, run the enabled checkers, apply
  suppressions and the per-file config, return a :class:`LintResult`.

Checkers yield :class:`Finding` objects; the driver fills in suppression
state.  Suppressed findings stay in the result (machine-readable output
reports them) but do not affect the exit status.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import os
import re
import tokenize
import zipfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.config import FIXTURE_DATA_GLOB, PER_FILE_IGNORES

__all__ = [
    "Finding",
    "FileContext",
    "ProjectContext",
    "Checker",
    "LintResult",
    "run_lint",
    "dotted_name",
    "iter_body_nodes",
    "BAD_SUPPRESSION",
    "PARSE_ERROR",
]

#: Meta-rules emitted by the driver itself (not registered checkers).
BAD_SUPPRESSION = "bad-suppression"
PARSE_ERROR = "parse-error"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable-file|disable)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+?)\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass
class Finding:
    """One checker hit: where, which invariant, and its suppression state."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    suppression_reason: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
        }


@dataclass
class _Suppression:
    kind: str  # "disable" | "disable-file"
    rules: Tuple[str, ...]
    reason: Optional[str]
    line: int
    code_before_comment: bool


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains (and bare names); else ``None``."""

    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes whose *nearest* enclosing function is ``func``.

    Descends statements/expressions but stops at nested ``def`` /
    ``async def`` / ``lambda`` boundaries: their bodies execute later (and
    typically elsewhere — the serve layer ships them to the executor), so
    they are not part of ``func``'s own execution.
    """

    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class FileContext:
    """One parsed file plus the structural maps checkers rely on."""

    def __init__(self, path: str, display_path: str, source: str, tree: ast.Module):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.func_of: Dict[ast.AST, Optional[ast.AST]] = {}
        self._build_maps()
        self.suppressions = self._scan_suppressions()

    def _build_maps(self) -> None:
        def visit(node: ast.AST, func: Optional[ast.AST]) -> None:
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
                self.func_of[child] = func
                child_func = func
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    child_func = child
                visit(child, child_func)

        visit(self.tree, None)

    # -- structure queries ----------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Nearest ``def`` / ``async def`` / ``lambda`` above ``node``."""

        return self.func_of.get(node)

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """The enclosing function, or the module when at top level."""

        return self.func_of.get(node) or self.tree

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    # -- suppressions ----------------------------------------------------
    def _scan_suppressions(self) -> List[_Suppression]:
        # Real comment tokens only: the directive syntax may legitimately
        # appear inside docstrings and message strings (this module's own
        # documentation does), and those must not count as suppressions.
        found: List[_Suppression] = []
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return found
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = tuple(
                r.strip() for r in match.group("rules").split(",") if r.strip()
            )
            lineno, col = token.start
            before = self.lines[lineno - 1][:col].strip()
            found.append(
                _Suppression(
                    kind=match.group("kind"),
                    rules=rules,
                    reason=match.group("reason"),
                    line=lineno,
                    code_before_comment=bool(before),
                )
            )
        return found

    def suppression_for(self, finding: Finding) -> Optional[_Suppression]:
        """The suppression covering ``finding``, if any (reasons validated
        separately by the driver)."""

        for sup in self.suppressions:
            if finding.rule not in sup.rules:
                continue
            if sup.kind == "disable-file":
                return sup
            # Trailing comments cover their own line; comment-only lines
            # cover the following line.
            covered = sup.line if sup.code_before_comment else sup.line + 1
            if finding.line == covered:
                return sup
        return None


class ProjectContext:
    """All linted files plus the golden-fixture corpus for cross-file checks."""

    def __init__(self, files: Sequence[FileContext], project_root: str):
        self.files = list(files)
        self.project_root = project_root
        self._fixture_blobs: Optional[List[Tuple[str, bytes]]] = None

    def fixture_blobs(self) -> List[Tuple[str, bytes]]:
        """``(name, bytes)`` for every file under ``tests/**/data/``.

        Zip containers (``.npz``) are expanded so container tags stored
        inside golden archives are visible to substring search.
        """

        if self._fixture_blobs is not None:
            return self._fixture_blobs
        blobs: List[Tuple[str, bytes]] = []
        pattern_root = os.path.join(self.project_root, "tests")
        for dirpath, _dirnames, filenames in os.walk(pattern_root):
            rel = os.path.relpath(dirpath, self.project_root)
            if not fnmatch.fnmatch(rel.replace(os.sep, "/"), FIXTURE_DATA_GLOB):
                continue
            for filename in sorted(filenames):
                full = os.path.join(dirpath, filename)
                with open(full, "rb") as handle:
                    data = handle.read()
                blobs.append((os.path.join(rel, filename), data))
                if zipfile.is_zipfile(full):
                    with zipfile.ZipFile(full) as archive:
                        for member in archive.namelist():
                            blobs.append(
                                (f"{rel}/{filename}:{member}", archive.read(member))
                            )
        self._fixture_blobs = blobs
        return blobs


class Checker:
    """Base class: subclasses set ``name``/``description`` and override
    :meth:`check_file` and/or :meth:`check_project`."""

    name: str = ""
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        return ()


@dataclass
class LintResult:
    """Everything ``repro lint`` reports: findings plus corpus counters."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.unsuppressed else 0


def _collect_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise ValueError(f"not a Python file or directory: {path}")
    seen = set()
    unique = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _display_path(path: str) -> str:
    rel = os.path.relpath(path)
    return path if rel.startswith("..") else rel


def _ignored_rules(display_path: str) -> frozenset:
    posix = display_path.replace(os.sep, "/")
    ignored = set()
    for pattern, rules in PER_FILE_IGNORES.items():
        if fnmatch.fnmatch(posix, pattern) or posix.endswith(pattern):
            ignored.update(rules)
    return frozenset(ignored)


def _project_root(contexts: Sequence[FileContext]) -> str:
    """The nearest directory above the linted files that holds ``tests/``.

    Golden fixtures live under the linted tree's ``tests/**/data/``, not
    under the directory ``repro lint`` happens to run from; the working
    directory is the fallback for a tree without ``tests/``.
    """

    for ctx in contexts:
        folder = os.path.dirname(os.path.abspath(ctx.path))
        while True:
            if os.path.isdir(os.path.join(folder, "tests")):
                return folder
            parent = os.path.dirname(folder)
            if parent == folder:
                break
            folder = parent
    return os.getcwd()


def run_lint(
    paths: Sequence[str],
    checkers: Sequence[Checker],
    rules: Optional[Sequence[str]] = None,
    project_root: Optional[str] = None,
) -> LintResult:
    """Run ``checkers`` (optionally filtered to ``rules``) over ``paths``."""

    if rules is not None:
        known = {c.name for c in checkers} | {BAD_SUPPRESSION, PARSE_ERROR}
        unknown = sorted(set(rules) - known)
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(unknown)}")
        checkers = [c for c in checkers if c.name in set(rules)]
    known_rules = {c.name for c in checkers} | {BAD_SUPPRESSION, PARSE_ERROR}

    result = LintResult()
    contexts: List[FileContext] = []
    for path in _collect_files(paths):
        display = _display_path(path)
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    rule=PARSE_ERROR,
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        contexts.append(FileContext(path, display, source, tree))
    result.files_checked = len(contexts)

    raw: List[Finding] = []
    for ctx in contexts:
        ignored = _ignored_rules(ctx.display_path)
        for checker in checkers:
            if checker.name in ignored:
                continue
            raw.extend(checker.check_file(ctx))

    project = ProjectContext(contexts, project_root or _project_root(contexts))
    by_display = {ctx.display_path: ctx for ctx in contexts}
    for checker in checkers:
        for finding in checker.check_project(project):
            if checker.name in _ignored_rules(finding.path):
                continue
            raw.append(finding)

    # Suppression pass: a suppression only takes effect when it carries a
    # reason and names known rules — anything else is itself a finding.
    for ctx in contexts:
        for sup in ctx.suppressions:
            unknown = sorted(set(sup.rules) - known_rules)
            problems = []
            if not sup.reason:
                problems.append("missing the required '-- reason'")
            if unknown:
                problems.append(f"unknown rule(s) {', '.join(unknown)}")
            if problems:
                raw.append(
                    Finding(
                        rule=BAD_SUPPRESSION,
                        path=ctx.display_path,
                        line=sup.line,
                        col=1,
                        message=(
                            "suppression "
                            f"'{sup.kind}={','.join(sup.rules)}' is "
                            + " and ".join(problems)
                            + " (syntax: # repro-lint: disable=RULE -- reason)"
                        ),
                    )
                )

    for finding in raw:
        ctx = by_display.get(finding.path)
        if ctx is not None and finding.rule not in (BAD_SUPPRESSION, PARSE_ERROR):
            sup = ctx.suppression_for(finding)
            if sup is not None and sup.reason:
                finding.suppressed = True
                finding.suppression_reason = sup.reason
        result.findings.append(finding)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
