"""Tests of the parallel sweep executor."""

import multiprocessing
import operator
import os
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.errors import ConfigurationError
from repro.runtime import SweepExecutor, resolve_jobs, shutdown_pool
from repro.runtime.executor import _partition


def _child_pid(_item):
    return os.getpid()


def _chunk_pids(chunk):
    return [os.getpid()] * len(chunk)


def _cache_dir_seen(_item):
    return os.getpid(), os.environ.get("REPRO_CACHE_DIR")


def _die(_item):
    os._exit(1)


def _live_children():
    return {p.pid for p in multiprocessing.active_children()}


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_means_all_cores(self):
        assert resolve_jobs(-1) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestPartition:
    def test_preserves_order_and_items(self):
        chunks = _partition(list(range(10)), 3)
        assert [x for chunk in chunks for x in chunk] == list(range(10))

    def test_near_equal_sizes(self):
        sizes = [len(c) for c in _partition(list(range(10)), 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_chunks_than_items(self):
        chunks = _partition([1, 2], 8)
        assert len(chunks) == 2
        assert all(chunks)

    def test_single_chunk(self):
        assert _partition([1, 2, 3], 1) == [[1, 2, 3]]


class TestSweepExecutorSerial:
    def test_map_preserves_order(self):
        out = SweepExecutor(jobs=1).map(partial(operator.mul, 3), range(6))
        assert out == [0, 3, 6, 9, 12, 15]

    def test_map_empty(self):
        assert SweepExecutor(jobs=1).map(abs, []) == []

    def test_map_chunked_serial(self):
        out = SweepExecutor(jobs=1).map_chunked(
            lambda chunk: [x + 1 for x in chunk], [1, 2, 3]
        )
        assert out == [2, 3, 4]

    def test_map_chunked_empty(self):
        assert SweepExecutor(jobs=1).map_chunked(list, []) == []


class TestSweepExecutorParallel:
    """The pool path must reproduce the serial path exactly."""

    def test_parallel_matches_serial(self):
        fn = partial(operator.mul, 7)
        items = list(range(11))
        serial = SweepExecutor(jobs=1).map(fn, items)
        parallel = SweepExecutor(jobs=2).map(fn, items)
        assert parallel == serial

    def test_more_workers_than_items(self):
        fn = partial(operator.add, 1)
        assert SweepExecutor(jobs=8).map(fn, [1, 2]) == [2, 3]


class TestSharedPool:
    """One spawn pool per process, replaced only when it has to be."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_pool()
        yield
        shutdown_pool()

    def test_maps_reuse_the_pool(self):
        first = set(SweepExecutor(jobs=2).map(_child_pid, range(8)))
        children = _live_children()
        second = set(SweepExecutor(jobs=2).map(_child_pid, range(8)))
        chunked = set(SweepExecutor(jobs=2).map_chunked(_chunk_pids, range(8)))
        assert os.getpid() not in first | second | chunked
        assert first | second | chunked <= children
        assert _live_children() == children

    def test_changed_environment_gets_fresh_children(self, monkeypatch,
                                                     tmp_path):
        executor = SweepExecutor(jobs=2)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        before = executor.map(_cache_dir_seen, range(4))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        after = executor.map(_cache_dir_seen, range(4))
        assert {seen for _, seen in before} == {str(tmp_path / "a")}
        assert {seen for _, seen in after} == {str(tmp_path / "b")}
        old = {pid for pid, _ in before}
        assert not old & {pid for pid, _ in after}
        assert not old & _live_children()

    def test_broken_pool_is_discarded(self):
        executor = SweepExecutor(jobs=2)
        with pytest.raises(BrokenProcessPool):
            executor.map(_die, range(2))
        assert executor.map(partial(operator.add, 1), range(4)) == [1, 2, 3, 4]

    def test_concurrent_maps_from_several_threads(self):
        factors = (2, 3, 5, 7)
        start = threading.Barrier(len(factors), timeout=30)
        results = {}

        def run(factor):
            start.wait()
            results[factor] = SweepExecutor(jobs=2).map(
                partial(operator.mul, factor), range(25)
            )

        threads = [threading.Thread(target=run, args=(f,)) for f in factors]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {f: [f * x for x in range(25)] for f in factors}
        # Two racing creations would leave an orphaned pool running.
        assert len(_live_children()) <= 2

    def test_shutdown_leaves_no_children(self):
        SweepExecutor(jobs=2).map(_child_pid, range(4))
        assert _live_children()
        shutdown_pool()
        assert multiprocessing.active_children() == []
