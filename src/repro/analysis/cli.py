"""The ``repro lint`` subcommand: run the invariant checkers, report.

Text output is one ``path:line:col: rule: message`` per finding (the
shape editors and CI annotations understand); ``--format json`` emits a
schema-versioned document with per-finding suppression state so
tooling can track finding counts over time.  Exit status is 0
iff no *unsuppressed* findings remain.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional, Sequence

from repro.analysis.checkers import all_checkers
from repro.analysis.core import LintResult, run_lint

__all__ = ["add_lint_arguments", "run_lint_command"]

#: Bump when the JSON document shape changes.
JSON_SCHEMA_VERSION = 1


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        default=None,
        metavar="RULE",
        help="run only this rule (repeatable); see --list-rules",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="finding report format",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings in text output",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the registered rules and exit"
    )


def _render_text(result: LintResult, show_suppressed: bool) -> List[str]:
    lines = []
    for finding in result.findings:
        if finding.suppressed and not show_suppressed:
            continue
        suffix = (
            f"  [suppressed: {finding.suppression_reason}]"
            if finding.suppressed
            else ""
        )
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule}: {finding.message}{suffix}"
        )
    n_unsuppressed = len(result.unsuppressed)
    n_suppressed = len(result.findings) - n_unsuppressed
    summary = (
        f"{result.files_checked} files checked: "
        f"{n_unsuppressed} finding(s), {n_suppressed} suppressed"
    )
    lines.append(summary)
    return lines


def _render_json(result: LintResult) -> str:
    document = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "counts": {
            "total": len(result.findings),
            "unsuppressed": len(result.unsuppressed),
            "suppressed": len(result.findings) - len(result.unsuppressed),
        },
        "findings": [finding.to_dict() for finding in result.findings],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def run_lint_command(args: argparse.Namespace) -> int:
    checkers = all_checkers()
    if args.list_rules:
        for checker in checkers:
            print(f"{checker.name}: {checker.description}")
        return 0
    try:
        result = run_lint(args.paths, checkers, rules=args.rules)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.output_format == "json":
        print(_render_json(result))
    else:
        for line in _render_text(result, args.show_suppressed):
            print(line)
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    parser = argparse.ArgumentParser(prog="repro lint")
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(list(argv) if argv else None))
