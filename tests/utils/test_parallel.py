"""Tests for repro.utils.parallel."""

from __future__ import annotations

import pytest

from repro.utils.parallel import ParallelConfig, parallel_map


def _square(x: int) -> int:
    return x * x


def _fail(x: int) -> int:
    raise RuntimeError("boom")


class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert config.workers == 1

    def test_rejects_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)


class TestParallelMap:
    def test_serial_matches_builtin_map(self):
        items = list(range(10))
        assert parallel_map(_square, items) == [x * x for x in items]

    def test_empty_input(self):
        assert parallel_map(_square, []) == []

    def test_preserves_order_with_threads(self):
        config = ParallelConfig(workers=4, use_processes=False)
        items = list(range(25))
        assert parallel_map(_square, items, config) == [x * x for x in items]

    def test_preserves_order_with_processes(self):
        config = ParallelConfig(workers=2, use_processes=True)
        items = list(range(8))
        assert parallel_map(_square, items, config) == [x * x for x in items]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_fail, [1], ParallelConfig(workers=2, use_processes=False))

    def test_serial_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_fail, [1])
