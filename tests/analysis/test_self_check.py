"""Self-check: the shipped source tree passes its own invariant lint.

This is the CI gate in test form — ``repro lint src/`` must report zero
unsuppressed findings, and every suppression in the tree must carry a
reason (the driver turns reasonless ones into findings, so exit 0 proves
both)."""

from __future__ import annotations

import pathlib

from repro.analysis import all_checkers, run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestSelfCheck:
    def test_src_tree_is_lint_clean(self):
        result = run_lint(
            [str(REPO_ROOT / "src")],
            all_checkers(),
            project_root=str(REPO_ROOT),
        )
        assert result.files_checked > 50
        assert result.unsuppressed == [], [
            f"{f.path}:{f.line}: {f.rule}: {f.message}"
            for f in result.unsuppressed
        ]
        assert result.exit_code == 0

    def test_every_suppression_in_tree_carries_a_reason(self):
        result = run_lint(
            [str(REPO_ROOT / "src")],
            all_checkers(),
            project_root=str(REPO_ROOT),
        )
        suppressed = [f for f in result.findings if f.suppressed]
        assert suppressed, "expected the documented suppressions to be visible"
        assert all(f.suppression_reason for f in suppressed)

    def test_src_tree_is_lint_clean_from_another_directory(self, tmp_path, monkeypatch):
        # Goldens are found from the linted tree's root, not the cwd.
        monkeypatch.chdir(tmp_path)
        result = run_lint([str(REPO_ROOT / "src")], all_checkers())
        assert result.unsuppressed == [], [
            f"{f.path}:{f.line}: {f.rule}: {f.message}"
            for f in result.unsuppressed
        ]
