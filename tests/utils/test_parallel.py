"""Tests for repro.utils.parallel."""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.utils import parallel
from repro.utils.parallel import (
    ENV_START_METHOD,
    ParallelConfig,
    WorkerPool,
    parallel_map,
    shutdown_pools,
    start_method,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _square(x: int) -> int:
    return x * x


def _fail(x: int) -> int:
    raise RuntimeError("boom")


def _double(x):
    return 2 * x


def _pid_after_pause(_):
    # The pause lets every worker of a small pool take a task.
    time.sleep(0.02)
    return os.getpid()


def _exit_now(_):
    os._exit(3)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _gone_soon(pids, timeout: float = 5.0) -> bool:
    give_up = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids):
        if time.monotonic() > give_up:
            return False
        time.sleep(0.05)
    return True


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

    def test_preserves_order_with_processes(self):
        config = ParallelConfig(workers=2)
        items = list(range(8))
        assert parallel_map(_square, items, config) == [x * x for x in items]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_fail, [1], ParallelConfig(workers=2))

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
        with WorkerPool(ParallelConfig(workers=2)) as pool:
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


@pytest.fixture
def fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


@pytest.mark.usefixtures("fresh_pools")
class TestSharedProcessPools:
    def test_maps_share_one_pool(self):
        config = ParallelConfig(workers=2)
        first = set(parallel_map(_pid_after_pause, range(8), config))
        second = set(parallel_map(_pid_after_pause, range(8), config))
        assert os.getpid() not in first
        assert second <= first
        with WorkerPool(config) as a, WorkerPool(config) as b:
            a.map(_double, [1])
            b.map(_double, [1])
            assert a._executor is b._executor

    def test_worker_count_and_start_method_key_the_pool(self, monkeypatch):
        with WorkerPool(ParallelConfig(workers=2)) as two:
            two.map(_double, [1])
        with WorkerPool(ParallelConfig(workers=3)) as three:
            three.map(_double, [1])
        assert two._executor is None and three._executor is None
        pools = dict(parallel._POOLS)
        method = start_method()
        assert set(pools) == {(2, method), (3, method)}
        assert pools[(2, method)] is not pools[(3, method)]

        other = "fork" if method == "spawn" else "spawn"
        monkeypatch.setenv(ENV_START_METHOD, other)
        assert parallel_map(_double, [1, 2], ParallelConfig(workers=2)) == [2, 4]
        assert parallel._POOLS[(2, other)] is not pools[(2, method)]
        assert parallel._POOLS[(2, method)] is pools[(2, method)]

    def test_broken_pool_is_replaced_on_the_next_map(self):
        config = ParallelConfig(workers=2)
        before = set(parallel_map(_pid_after_pause, range(4), config))
        with pytest.raises(BrokenProcessPool):
            parallel_map(_exit_now, [0], config)
        after = set(parallel_map(_pid_after_pause, range(4), config))
        assert parallel_map(_double, [1, 2, 3], config) == [2, 4, 6]
        assert not after & before

    def test_shutdown_pools_joins_every_worker(self):
        pids = set(parallel_map(_pid_after_pause, range(8), ParallelConfig(workers=2)))
        pids |= set(parallel_map(_pid_after_pause, range(8), ParallelConfig(workers=3)))
        shutdown_pools()
        assert parallel._POOLS == {}
        assert not any(_alive(pid) for pid in pids)
        # A map after shutdown starts a new pool.
        assert parallel_map(_double, [4], ParallelConfig(workers=2)) == [8]

    def test_exiting_process_leaves_no_worker(self):
        script = (
            "from repro.utils.parallel import ParallelConfig, parallel_map\n"
            "from tests.utils.test_parallel import _pid_after_pause\n"
            "pids = parallel_map(_pid_after_pause, range(8), ParallelConfig(workers=2))\n"
            "print(' '.join(map(str, sorted(set(pids)))))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        pids = [int(pid) for pid in done.stdout.split()]
        assert pids
        assert _gone_soon(pids)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_with_no_pools(self):
        assert parallel_map(_double, [1, 2], ParallelConfig(workers=2)) == [2, 4]
        assert parallel._POOLS
        pid = os.fork()
        if pid == 0:
            os._exit(0 if parallel._POOLS == {} else 1)
        give_up = time.monotonic() + 30
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < give_up:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        assert os.waitstatus_to_exitcode(status) == 0
        assert parallel._POOLS

    def test_concurrent_first_maps_start_one_pool(self):
        # More mapping threads than cores, racing to start the same pool.
        config = ParallelConfig(workers=2)
        results = {}

        def run(index):
            results[index] = parallel_map(_double, range(index, index + 4), config)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {i: [2 * x for x in range(i, i + 4)] for i in range(8)}
        assert list(parallel._POOLS) == [(2, start_method())]
