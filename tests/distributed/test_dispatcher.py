"""End-to-end tests of the shard dispatcher over localhost TCP.

The acceptance bar: a sweep dispatched to ≥2 workers produces
byte-identical merges to the monolithic ``analyze`` path, survives a
worker dying mid-shard, and never recomputes a shard that any worker
already wrote to the shared store.
"""

import concurrent.futures
import time

import pytest

from repro.distributed import DispatchError, ShardDispatcher
from repro.distributed.client import format_stats, request_stats
from repro.runtime import ResultCache
from repro.sram.montecarlo import MarginTally

from tests.distributed.conftest import (
    HEARTBEAT_INTERVAL,
    FakeWorker,
    WorkerThread,
    canon,
    make_dispatcher,
)

VDD = 0.7


class TestBitIdentity:
    def test_two_workers_match_monolithic_analyze(self, dist_analyzer, store_dir):
        reference = canon(dist_analyzer.analyze(VDD))
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            workers = [
                WorkerThread(host, port, store_dir, name=f"w{i}")
                for i in range(2)
            ]
            dispatcher.await_workers(2, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=dispatcher
            )
            assert canon(rates) == reference
            stats = dispatcher.stats
            assert stats.jobs == 3 and stats.completed == 3
            assert stats.computed == 3 and stats.retries == 0
            # Both workers genuinely participated (3 jobs, capacity 1
            # each, so no worker can have taken them all... unless one
            # raced every ready; assert distribution, not exact split).
            assert set(stats.per_worker) == {"w0", "w1"}
        for worker in workers:
            worker.join()

    def test_distributed_matches_local_sharded_and_shares_cache(
        self, dist_analyzer, store_dir
    ):
        """A local --shards run and a distributed run address the same
        store entries: whichever runs second computes nothing."""
        local = dist_analyzer.analyze_sharded(
            VDD, shards=3, cache=ResultCache(cache_dir=store_dir)
        )
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            worker = WorkerThread(host, port, store_dir)
            dispatcher.await_workers(1, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=dispatcher
            )
            assert canon(rates) == canon(local)
            # Every shard was answered from the dispatcher's store.
            assert dispatcher.stats.store_hits == 3
            assert dispatcher.stats.computed == 0
            assert dispatcher.stats.assignments == 0
        worker.join()


def past_a_peer(analyzer, store_dir, behavior, **dispatcher_kwargs):
    """Sweep 3 shards on a scripted ``behavior`` peer plus a real
    survivor.  The peer registers first, so it is first in the idle
    queue and deterministically receives the first shard.  Checks the
    merge against the monolithic run; returns ``(stats, peer)``."""
    reference = canon(analyzer.analyze(VDD))
    with make_dispatcher(store_dir, **dispatcher_kwargs) as dispatcher:
        host, port = dispatcher.start()
        peer = FakeWorker(host, port, behavior, name=behavior)
        dispatcher.await_workers(1, timeout=10)
        survivor = WorkerThread(host, port, store_dir, name="survivor")
        dispatcher.await_workers(2, timeout=10)
        rates = analyzer.analyze_sharded(VDD, shards=3, dispatcher=dispatcher)
        assert canon(rates) == reference
    peer.join()
    survivor.join()
    return dispatcher.stats, peer


class TestFailureRecovery:
    def test_worker_dead_mid_shard_is_reassigned(self, dist_analyzer, store_dir):
        """The killed-mid-run acceptance scenario: the first worker takes
        a shard and goes silent; the dispatcher times it out, reassigns,
        and the merged result is still bit-identical."""
        stats, _ = past_a_peer(dist_analyzer, store_dir, "silent")
        assert stats.per_worker.get("silent") == 1
        assert stats.retries >= 1 and stats.workers_lost >= 1
        assert stats.completed == 3

    def test_abrupt_disconnect_mid_shard_is_reassigned(
        self, dist_analyzer, store_dir
    ):
        assert past_a_peer(dist_analyzer, store_dir, "disconnect")[0].retries >= 1

    def test_error_with_unparseable_job_id_still_requeues(
        self, dist_analyzer, store_dir
    ):
        """A worker that cannot parse its assignment reports job_id '?';
        the dispatcher must requeue the job it held, not strand it."""
        stats, _ = past_a_peer(dist_analyzer, store_dir, "error-mismatch")
        assert stats.retries >= 1

    def test_retries_exhausted_fails_the_run(self, dist_analyzer, store_dir):
        with make_dispatcher(store_dir, max_retries=1) as dispatcher:
            host, port = dispatcher.start()
            fake = FakeWorker(host, port, "error", name="lemon")
            dispatcher.await_workers(1, timeout=10)
            with pytest.raises(DispatchError, match="failed after"):
                dist_analyzer.analyze_sharded(
                    VDD, shards=2, dispatcher=dispatcher
                )
            assert dispatcher.stats.failures >= 1
        fake.join()

    def test_undecodable_result_is_a_failed_attempt(self, dist_analyzer, store_dir):
        """A result ``decode`` rejects spends one attempt of the peer
        that sent it, and the job is recomputed elsewhere."""
        stats, _ = past_a_peer(dist_analyzer, store_dir, "junk")
        assert (stats.retries, stats.failures, stats.computed) == (1, 0, 3)

    def test_undecodable_result_without_retries_fails_fast(self, dist_analyzer):
        with make_dispatcher(max_retries=0) as dispatcher:
            host, port = dispatcher.start()
            fake = FakeWorker(host, port, "junk")
            dispatcher.await_workers(1, timeout=10)
            with pytest.raises(DispatchError, match="undecodable"):
                dispatcher.dispatch(
                    margin_jobs(dist_analyzer, shards=1),
                    decode=MarginTally.from_dict, merge=MarginTally.merge,
                    timeout=10,
                )
            assert (dispatcher.stats.failures, dispatcher.stats.computed) == (1, 0)
        fake.join()

    def test_shutdown_with_job_in_flight_requeues_without_retry(
        self, dist_analyzer, store_dir
    ):
        """A worker announces a drain ``shutdown`` with its assignment in
        flight: the dispatcher acknowledges it and requeues the job
        without spending an attempt (``max_retries=0`` would fail)."""
        stats, drainer = past_a_peer(dist_analyzer, store_dir, "drain", max_retries=0)
        assert stats.per_worker.get("drain") == 1
        assert (stats.drain_requeues, stats.retries) == (1, 0)
        assert drainer.acked, "dispatcher never acknowledged the drain"


class TestSharedStoreDedupe:
    def test_workers_sharing_a_store_never_recompute(
        self, dist_analyzer, store_dir
    ):
        """Two fleets sharing one cache directory: the second fleet's
        workers answer everything from the store (dispatcher has no
        store of its own here, so the dedupe is purely worker-side)."""
        with make_dispatcher(store_dir=None) as first:
            host, port = first.start()
            worker = WorkerThread(host, port, store_dir, name="first")
            first.await_workers(1, timeout=10)
            rates_first = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=first
            )
            assert first.stats.computed == 3
        worker.join()

        with make_dispatcher(store_dir=None) as second:
            host, port = second.start()
            workers = [
                WorkerThread(host, port, store_dir, name=f"second-{i}")
                for i in range(2)
            ]
            second.await_workers(2, timeout=10)
            rates_second = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=second
            )
            assert canon(rates_second) == canon(rates_first)
            assert second.stats.worker_cache_hits == 3
            assert second.stats.computed == 0
        for worker in workers:
            worker.join()

    def test_close_waits_for_the_dispatchers_store_writes(
        self, dist_analyzer, store_dir
    ):
        """Every result the dispatcher persisted is in its store once
        close() returns, however slow the writes (the worker keeps no
        store, so the dispatcher's are the only ones).  A write landing
        later would race the caller's cleanup of the store."""

        class SlowStore(ResultCache):
            def put(self, namespace, payload, value):
                time.sleep(0.3)
                super().put(namespace, payload, value)

        jobs = margin_jobs(dist_analyzer, shards=2)
        dispatcher = ShardDispatcher(
            store=SlowStore(store_dir), heartbeat_interval=HEARTBEAT_INTERVAL
        )
        host, port = dispatcher.start()
        worker = WorkerThread(host, port)
        dispatcher.await_workers(1, timeout=10)
        dispatcher.dispatch(jobs, timeout=60)
        dispatcher.close()
        # The stats and the store's write counters explain a failure.
        evidence = (dispatcher.stats.to_dict(), dispatcher.store.tier)
        assert dispatcher.stats.computed == 2, evidence
        store = ResultCache(store_dir)
        assert [store.get(job.namespace, job.payload) is not None
                for job in jobs] == [True, True], evidence
        worker.join()


class TestDispatcherProtocol:
    def test_stats_probe_over_tcp(self, dist_analyzer, store_dir):
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            worker = WorkerThread(host, port, store_dir)
            dispatcher.await_workers(1, timeout=10)
            dist_analyzer.analyze_sharded(VDD, shards=2, dispatcher=dispatcher)
            stats = request_stats(host, port)
            assert stats["jobs"] == 2
            assert stats["completed"] == 2
            assert stats["active_workers"] == 1
        worker.join()

    def test_start_on_taken_port_fails_loudly(self):
        """A bind failure must surface as DispatchError, not hang
        start() on an event that is never set."""
        with make_dispatcher() as first:
            host, port = first.start()
            second = make_dispatcher()
            with pytest.raises(DispatchError, match="could not listen"):
                second.start(host, port)

    def test_wait_for_workers_times_out(self):
        with make_dispatcher() as dispatcher:
            dispatcher.start()
            with pytest.raises(DispatchError, match="timed out"):
                dispatcher.await_workers(1, timeout=0.2)

    def test_run_guards(self, dist_analyzer):
        from repro.distributed import margin_tally_jobs

        with make_dispatcher() as dispatcher:
            with pytest.raises(DispatchError, match="not started"):
                dispatcher.dispatch([])
            dispatcher.start()
            with pytest.raises(DispatchError, match="empty job list"):
                dispatcher.dispatch([])
            resolved = dist_analyzer.resolved()
            plan = resolved.shard_plan(shards=2)
            jobs = margin_tally_jobs(resolved, VDD, plan)
            twice = list(jobs) + list(jobs)
            with pytest.raises(DispatchError, match="unique"):
                dispatcher.dispatch(twice)

    def test_raw_results_without_merge(self, dist_analyzer, store_dir):
        """run() without a merge returns per-job values in job order."""
        from repro.distributed import margin_tally_jobs

        resolved = dist_analyzer.resolved()
        plan = resolved.shard_plan(shards=3)
        jobs = margin_tally_jobs(resolved, VDD, plan)
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            worker = WorkerThread(host, port, store_dir)
            dispatcher.await_workers(1, timeout=10)
            values = dispatcher.dispatch(jobs, decode=MarginTally.from_dict)
            assert [v.block_index[0] for v in values] == [0, 2, 4]
            merged = MarginTally.merge(values)
            assert merged.n_samples == dist_analyzer.n_samples
        worker.join()


def margin_jobs(analyzer, shards=3):
    from repro.distributed import margin_tally_jobs

    resolved = analyzer.resolved()
    return margin_tally_jobs(resolved, VDD, resolved.shard_plan(shards=shards))


class TestScheduling:
    """Concurrent clients on one FIFO queue, and queue observability."""

    @staticmethod
    def _await_depth(dispatcher, depth, timeout=10.0):
        deadline = time.monotonic() + timeout
        while dispatcher.queue_snapshot()["depth"] < depth:
            assert time.monotonic() < deadline, "jobs never queued"
            time.sleep(0.01)

    def test_concurrent_clients_share_the_fleet(self, dist_analyzer, store_dir):
        """Two client threads dispatching concurrently both finish, and
        their runs are tracked under their own client names."""
        import threading

        jobs_a = margin_jobs(dist_analyzer, shards=3)
        jobs_b = margin_jobs(dist_analyzer, shards=2)
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            workers = [
                WorkerThread(host, port, store_dir, name=f"w{i}")
                for i in range(2)
            ]
            dispatcher.await_workers(2, timeout=10)
            out = {}

            def run(name, jobs):
                out[name] = dispatcher.dispatch(
                    jobs, decode=MarginTally.from_dict,
                    merge=MarginTally.merge, client=name, timeout=60,
                )

            threads = [
                threading.Thread(target=run, args=("alice", jobs_a)),
                threading.Thread(target=run, args=("bob", jobs_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert out["alice"].n_samples == dist_analyzer.n_samples
            assert out["bob"].n_samples == dist_analyzer.n_samples
            assert dispatcher.stats.completed == 5
        for worker in workers:
            worker.join()

    def test_same_job_ids_in_concurrent_runs_rejected(
        self, dist_analyzer, store_dir
    ):
        """A job id may not be outstanding in two runs at once (results
        could not be told apart); sequential reuse is fine."""
        import threading

        jobs = margin_jobs(dist_analyzer, shards=2)
        with make_dispatcher(store_dir=None) as dispatcher:
            host, port = dispatcher.start()
            errors = []

            def first():
                try:
                    dispatcher.dispatch(jobs, timeout=60)
                except DispatchError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=first)
            thread.start()
            self._await_depth(dispatcher, 2)
            with pytest.raises(DispatchError, match="already outstanding"):
                dispatcher.dispatch(jobs, timeout=60)
            worker = WorkerThread(host, port, store_dir=None)
            thread.join(60)
            assert not errors
            # The ids are free again: a sequential rerun is legal.
            dispatcher.dispatch(jobs, timeout=60)
        worker.join()

    def test_timed_out_dispatch_releases_its_jobs(self, dist_analyzer):
        """A dispatch that times out takes its queued jobs with it: the
        queue empties, the same ids may be resubmitted, and a worker
        joining later never computes the orphans."""
        jobs = margin_jobs(dist_analyzer, shards=2)
        with make_dispatcher() as dispatcher:
            host, port = dispatcher.start()
            with pytest.raises(concurrent.futures.TimeoutError):
                dispatcher.dispatch(jobs, timeout=0.3)
            assert dispatcher.queue_snapshot()["depth"] == 0
            worker = WorkerThread(host, port)
            dispatcher.await_workers(1, timeout=10)
            assert len(dispatcher.dispatch(jobs, timeout=60)) == 2
            assert dispatcher.stats.assignments == 2
        worker.join()

    def test_stats_probe_reports_queues_and_speculation(
        self, dist_analyzer, store_dir
    ):
        with make_dispatcher(store_dir, speculation_threshold=9.0) as dispatcher:
            host, port = dispatcher.start()
            worker = WorkerThread(host, port, store_dir)
            dispatcher.await_workers(1, timeout=10)
            dist_analyzer.analyze_sharded(VDD, shards=2, dispatcher=dispatcher)
            stats = request_stats(host, port)
            assert stats["queues"]["depth"] == 0
            assert stats["queues"]["inflight"] == 0
            assert stats["queues"]["per_kind"] == {}
            assert stats["speculation"] == {"enabled": True, "cutoff": 9.0}
            # The nested blocks render deterministically (sorted keys).
            text = format_stats(stats)
            assert text == format_stats(dict(reversed(list(stats.items()))))
            assert "queues:" in text and "speculation:" in text
        worker.join()

    def test_speculation_knobs_validated(self):
        from repro.distributed import ShardDispatcher

        for kwargs in [
            dict(speculation_threshold=0.0),
            dict(heartbeat_interval=float("nan")),
            dict(speculation_threshold=float("nan")),
            dict(speculation_threshold=float("inf")),
        ]:
            with pytest.raises(DispatchError):
                ShardDispatcher(**kwargs)
