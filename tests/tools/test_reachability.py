"""Tests for the reachability driver in tools/reachability.py.

The full drive takes about 30 s and runs in CI's reachability job; these
tests pin the parts a wrong answer would come from: the committed
allowlist, the def inventory and its keys, the verdict, and the recorder.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import shutil
import sys
import threading

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_driver():
    spec = importlib.util.spec_from_file_location(
        "reachability", os.path.join(ROOT, "tools", "reachability.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("reachability", module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return sys.modules["reachability"]


reachability = _load_driver()


@pytest.fixture(scope="module")
def defs():
    return reachability.collect_defs()


def _resolve(d):
    """The function object a top-level or class-level Def names, if any."""

    dotted = d.path[: -len(".py")].replace("/", ".").removesuffix(".__init__")
    module = importlib.import_module(dotted)
    target = module
    for part in d.qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    if isinstance(target, property):
        target = target.fget
    return getattr(target, "__func__", target)


class TestCommittedAllowlist:
    def test_entries_carry_reasons(self):
        entries, problems = reachability.load_allowlist(reachability.ALLOWLIST)
        assert entries
        assert problems == []
        assert all(reason for reason in entries.values())

    def test_entries_name_existing_defs(self, defs):
        entries, _ = reachability.load_allowlist(reachability.ALLOWLIST)
        known = {d.ident for d in defs}
        assert sorted(set(entries) - known) == []

    def test_no_entry_is_listed_twice(self):
        with open(reachability.ALLOWLIST, encoding="utf-8") as handle:
            idents = [
                line.split(" ", 1)[0]
                for line in map(str.strip, handle)
                if line and not line.startswith("#")
            ]
        assert len(idents) == len(set(idents))


class TestLoadAllowlist:
    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("# header\n\n  repro/a.py::f   kept for a reason  \n# trailing\n")
        entries, problems = reachability.load_allowlist(str(path))
        assert entries == {"repro/a.py::f": "kept for a reason"}
        assert problems == []

    def test_entry_without_reason_is_reported(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("repro/a.py::f because\nrepro/b.py::g\n")
        entries, problems = reachability.load_allowlist(str(path))
        assert set(entries) == {"repro/a.py::f", "repro/b.py::g"}
        assert len(problems) == 1 and ":2: repro/b.py::g gives no reason" in problems[0]


class TestCollectDefs:
    def test_idents_are_unique(self, defs):
        idents = [d.ident for d in defs]
        assert len(idents) == len(set(idents))

    def test_first_line_is_the_code_objects_first_line(self, defs):
        # The recorder keys entered code by (file, co_firstlineno); a Def
        # whose first line differs would read as unreached when it ran.
        checked = 0
        for d in defs:
            if d.parent is not None:
                continue
            func = _resolve(d)
            code = getattr(func, "__code__", None)
            if code is None or os.path.basename(code.co_filename) != os.path.basename(d.path):
                continue  # a name rebound at import time, e.g. by a decorator
            assert code.co_firstlineno == d.first, d.ident
            checked += 1
        assert checked > 0.9 * sum(d.parent is None for d in defs)

    def test_nested_def_names_its_enclosing_def(self, defs):
        by_ident = {d.ident: d for d in defs}
        nested = [d for d in defs if d.parent is not None]
        assert nested
        for d in nested:
            outer = by_ident[d.parent]
            assert d.qualname.startswith(outer.qualname + ".")
            assert outer.first < d.first <= d.last <= outer.last

    def test_abstract_methods_are_left_out(self, defs):
        idents = {d.ident for d in defs}
        assert "repro/compressors/base.py::Compressor.compress" not in idents
        assert "repro/compressors/base.py::Compressor.decompress" not in idents
        assert "repro/compressors/base.py::Compressor.check_error_bound" in idents
        assert "repro/compressors/sz.py::SZCompressor.compress" in idents


class TestVerdict:
    @staticmethod
    def _def(qualname, first, parent=None):
        return reachability.Def("repro/m.py", qualname, first, first + 5, parent)

    def test_entered_defs_are_not_reported(self):
        defs = [self._def("f", 1), self._def("g", 10)]
        missed = reachability.unreached(defs, {("repro/m.py", 1)})
        assert [d.qualname for d in missed] == ["g"]

    def test_only_the_outermost_missed_def_is_reported(self):
        outer = self._def("f", 1)
        inner = self._def("f.inner", 2, parent=outer.ident)
        assert reachability.unreached([outer, inner], set()) == [outer]

    def test_missed_def_inside_an_entered_def_is_reported(self):
        outer = self._def("f", 1)
        inner = self._def("f.inner", 2, parent=outer.ident)
        missed = reachability.unreached([outer, inner], {("repro/m.py", 1)})
        assert missed == [inner]


class TestRecorder:
    def test_records_package_calls_on_every_thread(self):
        from repro.compressors.blocks import quantize_to_grid, split_unpredictable

        recorder = reachability.Recorder()
        recorder.start()
        try:
            quantize_to_grid(np.ones(3), 1.0)
            worker = threading.Thread(
                target=split_unpredictable, args=(np.ones(3, dtype=np.int64), 4)
            )
            worker.start()
            worker.join()
            entered = recorder.entered()
        finally:
            recorder.stop()
            shutil.rmtree(recorder.child_dir, ignore_errors=True)
        path = "repro/compressors/blocks.py"
        assert (path, quantize_to_grid.__code__.co_firstlineno) in entered
        assert (path, split_unpredictable.__code__.co_firstlineno) in entered
        assert all(file.startswith("repro/") for file, _ in entered)
