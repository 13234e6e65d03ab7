"""Tests for repro.utils.parallel."""

from __future__ import annotations

import pytest

from repro.utils.parallel import (
    ENV_START_METHOD,
    ParallelConfig,
    WorkerPool,
    parallel_map,
    start_method,
)


def _square(x: int) -> int:
    return x * x


def _fail(x: int) -> int:
    raise RuntimeError("boom")


def _double(x):
    return 2 * x


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


class TestWorkerPool:
    def test_lazy_executor_on_empty_map(self):
        with WorkerPool(ParallelConfig(workers=2)) as pool:
            assert pool.map(_double, []) == []
            assert pool._executor is None
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool._executor is not None

    def test_serial_pool_has_no_executor(self):
        with WorkerPool(None) as pool:
            assert pool.map(_double, [5]) == [10]
            assert pool._executor is None

    def test_reuse_across_batches(self):
        with WorkerPool(ParallelConfig(workers=2, use_processes=False)) as pool:
            first = pool.map(_double, [1, 2])
            executor = pool._executor
            second = pool.map(_double, [3, 4])
            assert pool._executor is executor
        assert (first, second) == ([2, 4], [6, 8])


class TestStartMethod:
    def test_unset_means_platform_default(self, monkeypatch):
        monkeypatch.delenv(ENV_START_METHOD, raising=False)
        assert start_method() is None
        monkeypatch.setenv(ENV_START_METHOD, "")
        assert start_method() is None

    def test_valid_method_is_honoured(self, monkeypatch):
        monkeypatch.setenv(ENV_START_METHOD, "spawn")
        assert start_method() == "spawn"

    def test_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_START_METHOD, "frok")
        with pytest.raises(ValueError, match="frok"):
            start_method()

    def test_parallel_map_under_spawn(self, monkeypatch):
        monkeypatch.setenv(ENV_START_METHOD, "spawn")
        config = ParallelConfig(workers=2)
        assert parallel_map(_double, [1, 2, 3], config) == [2, 4, 6]
