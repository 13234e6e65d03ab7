"""Per-rule fixture tests: every rule has a bad fixture that trips it and
a good fixture that passes it (the acceptance surface of the checker
suite), plus the PR 2 regression scratch-file check."""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import all_checkers, run_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint_paths(paths, rule, project_root=None):
    return run_lint(
        [str(p) for p in paths],
        all_checkers(),
        rules=[rule],
        project_root=str(project_root) if project_root else None,
    )


PAIRS = [
    ("unsafe-cast", "unsafe_cast_bad.py", "unsafe_cast_good.py", 2),
    ("async-blocking", "async_blocking_bad.py", "async_blocking_good.py", 5),
    ("worker-boundary", "worker_boundary_bad.py", "worker_boundary_good.py", 5),
    (
        "seeded-randomness",
        "seeded_randomness_bad.py",
        "seeded_randomness_good.py",
        3,
    ),
    (
        "resource-hygiene",
        "resource_hygiene_bad.py",
        "resource_hygiene_good.py",
        2,
    ),
    (
        "timing-discipline",
        "timing_discipline_bad.py",
        "timing_discipline_good.py",
        8,
    ),
]


class TestFixturePairs:
    @pytest.mark.parametrize(
        "rule,bad,good,n_bad", PAIRS, ids=[p[0] for p in PAIRS]
    )
    def test_bad_fixture_fails_good_fixture_passes(self, rule, bad, good, n_bad):
        bad_result = lint_paths([FIXTURES / bad], rule)
        assert len(bad_result.unsuppressed) == n_bad, [
            f"{f.line}: {f.message}" for f in bad_result.findings
        ]
        assert all(f.rule == rule for f in bad_result.unsuppressed)
        assert bad_result.exit_code == 1

        good_result = lint_paths([FIXTURES / good], rule)
        assert good_result.unsuppressed == []
        assert good_result.exit_code == 0


class TestExecutorWorkers:
    """Workers reach the pool through ``WaveExecutor.run_waves`` too; its
    first argument is checked like a ``parallel_map`` callable."""

    def test_bad_fixture_fails_good_fixture_passes(self):
        bad = lint_paths(
            [FIXTURES / "worker_boundary_executor_bad.py"], "worker-boundary"
        )
        assert len(bad.unsuppressed) == 3, [
            f"{f.line}: {f.message}" for f in bad.findings
        ]
        good = lint_paths(
            [FIXTURES / "worker_boundary_executor_good.py"], "worker-boundary"
        )
        assert good.unsuppressed == []

    def test_segments_are_flagged_in_the_pool_module_too(self):
        # No shared-memory transport is sanctioned anywhere, including the
        # module that owns the pools.
        module = FIXTURES / "worker_boundary_shm" / "utils" / "parallel.py"
        result = lint_paths([module], "worker-boundary")
        assert [f.line for f in result.unsuppressed] == [8]
        assert "SharedMemory" in result.unsuppressed[0].message


class TestImportedWorkers:
    """A worker defined in one module and submitted from another (as the
    tile workers are) has its returns checked in the defining file."""

    def test_bad_fixture_fails_good_fixture_passes(self):
        root = FIXTURES / "worker_boundary_imported"
        bad = lint_paths([root / "bad"], "worker-boundary")
        assert [(pathlib.Path(f.path).name, f.line) for f in bad.unsuppressed] == [
            ("tiles.py", 10)
        ]
        assert "encode_tile" in bad.unsuppressed[0].message
        good = lint_paths([root / "good"], "worker-boundary")
        assert good.unsuppressed == []


class TestDatasetsCarveOut:
    def test_seed_accepting_generator_is_exempt(self):
        result = lint_paths(
            [FIXTURES / "datasets" / "carveout_good.py"], "seeded-randomness"
        )
        assert result.unsuppressed == []

    def test_module_level_draw_still_flagged_under_datasets(self):
        result = lint_paths(
            [FIXTURES / "datasets" / "carveout_bad.py"], "seeded-randomness"
        )
        assert len(result.unsuppressed) == 1


class TestFormatVersionProjects:
    def test_bad_project_unpinned_tag_layout_leak_and_literal(self):
        root = FIXTURES / "format_version" / "bad_project"
        result = lint_paths([root], "format-version", project_root=root)
        messages = sorted(f.message for f in result.unsuppressed)
        assert len(messages) == 3
        assert any("no golden fixture" in m for m in messages)
        assert any("_HEADER" in m for m in messages)
        assert any("re-declared" in m for m in messages)

    def test_good_project_tag_pinned_by_golden(self):
        root = FIXTURES / "format_version" / "good_project"
        result = lint_paths([root], "format-version", project_root=root)
        assert result.unsuppressed == []


class TestPR2Regression:
    """Acceptance check: deliberately reintroducing the PR 2 bug pattern
    in a scratch file is flagged."""

    def test_reintroduced_pattern_is_flagged(self, tmp_path):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(
            "import numpy as np\n"
            "\n"
            "def requantize(coeffs, precisions):\n"
            "    ratios = np.rint(coeffs / precisions)\n"
            "    return ratios.astype(np.int64)\n"
        )
        result = lint_paths([scratch], "unsafe-cast")
        assert [f.rule for f in result.unsuppressed] == ["unsafe-cast"]
        assert result.exit_code == 1

    def test_masked_variant_passes(self, tmp_path):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(
            "import numpy as np\n"
            "\n"
            "def requantize(coeffs, precisions):\n"
            "    with np.errstate(invalid='ignore', over='ignore'):\n"
            "        ratios = np.rint(coeffs / precisions)\n"
            "    return np.where(np.isfinite(ratios), ratios, 0.0)"
            ".astype(np.int64)\n"
        )
        result = lint_paths([scratch], "unsafe-cast")
        assert result.unsuppressed == []
