"""End-to-end tests of the shard dispatcher over localhost TCP.

The acceptance bar: a sweep dispatched to ≥2 workers produces
byte-identical merges to the monolithic ``analyze`` path, survives a
worker dying mid-shard, and never recomputes a shard that any worker
already wrote to the shared store.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.distributed import DispatchError
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


class TestFailureRecovery:
    def test_worker_dead_mid_shard_is_reassigned(self, dist_analyzer, store_dir):
        """The killed-mid-run acceptance scenario: the first worker takes
        a shard and goes silent; the dispatcher times it out, reassigns,
        and the merged result is still bit-identical."""
        reference = canon(dist_analyzer.analyze(VDD))
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            fake = FakeWorker(host, port, "silent", name="victim")
            dispatcher.await_workers(1, timeout=10)
            # The victim registered first, so it is first in the idle
            # queue and deterministically receives the first shard.
            survivor = WorkerThread(host, port, store_dir, name="survivor")
            dispatcher.await_workers(2, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=dispatcher
            )
            assert canon(rates) == reference
            stats = dispatcher.stats
            assert stats.per_worker.get("victim") == 1
            assert stats.retries >= 1
            assert stats.workers_lost >= 1
            assert stats.completed == 3
        fake.join()
        survivor.join()

    def test_abrupt_disconnect_mid_shard_is_reassigned(
        self, dist_analyzer, store_dir
    ):
        reference = canon(dist_analyzer.analyze(VDD))
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            fake = FakeWorker(host, port, "disconnect", name="dropper")
            dispatcher.await_workers(1, timeout=10)
            survivor = WorkerThread(host, port, store_dir, name="survivor")
            dispatcher.await_workers(2, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=dispatcher
            )
            assert canon(rates) == reference
            assert dispatcher.stats.retries >= 1
        fake.join()
        survivor.join()

    def test_error_with_unparseable_job_id_still_requeues(
        self, dist_analyzer, store_dir
    ):
        """A worker that cannot parse its assignment reports job_id '?';
        the dispatcher must requeue the job it held, not strand it."""
        reference = canon(dist_analyzer.analyze(VDD))
        with make_dispatcher(store_dir) as dispatcher:
            host, port = dispatcher.start()
            fake = FakeWorker(host, port, "error-mismatch", name="garbled")
            dispatcher.await_workers(1, timeout=10)
            survivor = WorkerThread(host, port, store_dir, name="survivor")
            dispatcher.await_workers(2, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=dispatcher
            )
            assert canon(rates) == reference
            assert dispatcher.stats.retries >= 1
        survivor.join()

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
    """Per-client priority queues, fair dequeue and queue observability."""

    @staticmethod
    def _await_depth(dispatcher, depth, timeout=10.0):
        import time

        deadline = time.monotonic() + timeout
        while dispatcher.queue_snapshot()["depth"] < depth:
            assert time.monotonic() < deadline, "jobs never queued"
            time.sleep(0.01)

    def test_priority_orders_assignments_within_a_client(
        self, dist_analyzer, store_dir
    ):
        """Jobs queued before any worker exists drain strictly by
        (priority, submit order) once a lone worker appears."""
        import threading

        jobs = margin_jobs(dist_analyzer, shards=4)
        order = []
        lock = threading.Lock()
        with make_dispatcher(store_dir, speculate=False) as dispatcher:
            host, port = dispatcher.start()

            def submit(job, priority):
                dispatcher.dispatch([job], priority=priority, timeout=60)
                with lock:
                    order.append(job.job_id)

            threads = [
                threading.Thread(target=submit, args=(job, priority))
                for job, priority in zip(jobs, [5, 0, 5, 0])
            ]
            for thread in threads:
                thread.start()
            # All four runs queued (no worker yet): observable depths.
            self._await_depth(dispatcher, 4)
            snapshot = dispatcher.queue_snapshot()
            assert snapshot["depth"] == 4
            assert snapshot["per_kind"] == {"margin_tally": 4}
            assert snapshot["per_client"] == {"default": 4}
            worker = WorkerThread(host, port, store_dir, name="solo")
            for thread in threads:
                thread.join(60)
            assert dispatcher.stats.per_worker == {"solo": 4}
            assert dispatcher.queue_snapshot()["depth"] == 0
            # The two priority-0 jobs completed before the priority-5s.
            assert set(order[:2]) == {jobs[1].job_id, jobs[3].job_id}
        worker.join()

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
            dict(speculation_quantile=1.0),
            dict(speculation_factor=0.5),
            dict(speculation_min_samples=0),
        ]:
            with pytest.raises(DispatchError):
                ShardDispatcher(**kwargs)


class _ScriptedPeer:
    """Scaffolding for one-shot scripted workers: register, take one
    assignment, then hand control to :meth:`_after_assign`."""

    def __init__(self, host, port, name):
        self.host, self.port, self.name = host, port, name
        self.assigned = []
        self.acked = False
        self._done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        try:
            asyncio.run(self._script())
        finally:
            self._done.set()

    async def _script(self):
        reader, writer = await asyncio.open_connection(self.host, self.port)

        async def send(payload):
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()

        async def recv():
            raw = await reader.readline()
            return json.loads(raw) if raw else None

        try:
            await send({"type": "register", "name": self.name,
                        "pid": 0, "protocol": 1})
            welcome = await recv()
            assert welcome and welcome["type"] == "welcome", welcome
            await send({"type": "ready"})
            message = await recv()
            assert message and message["type"] == "assign", message
            self.assigned.append(message["job"]["job_id"])
            await self._after_assign(send, recv)
        finally:
            writer.close()

    async def _after_assign(self, send, recv):
        raise NotImplementedError

    def join(self, timeout=10):
        assert self._done.wait(timeout), f"{self.name} script did not finish"


class DrainAnnouncingWorker(_ScriptedPeer):
    """Announces a clean ``shutdown`` with its assignment still in
    flight — the worker-side race of a ``--max-jobs`` drain."""

    async def _after_assign(self, send, recv):
        await send({"type": "shutdown"})
        while True:
            ack = await asyncio.wait_for(recv(), timeout=10)
            if ack is None:
                return
            if ack.get("type") == "shutdown":
                self.acked = True
                return


class HeartbeatingStraggler(_ScriptedPeer):
    """Holds its assignment forever while heartbeating — alive and
    slow, the shape that triggers speculation rather than retirement."""

    async def _after_assign(self, send, recv):
        while True:
            try:
                message = await asyncio.wait_for(
                    recv(), timeout=HEARTBEAT_INTERVAL / 2
                )
            except asyncio.TimeoutError:
                await send({"type": "heartbeat"})
                continue
            if message is None or message.get("type") == "shutdown":
                return


class TestDrainRaces:
    """Drain announcements racing live assignments (the satellite
    sweep): neither interleaving may burn a retry or bend the bytes."""

    def test_shutdown_with_job_in_flight_requeues_without_retry(
        self, dist_analyzer, store_dir
    ):
        """A worker announces shutdown while an assignment is in
        flight.  ``max_retries=0`` makes the proof sharp: if the
        graceful requeue consumed the retry budget, the run would fail
        outright instead of completing byte-identically."""
        reference = canon(dist_analyzer.analyze(VDD))
        with make_dispatcher(store_dir, max_retries=0) as dispatcher:
            host, port = dispatcher.start()
            drainer = DrainAnnouncingWorker(host, port, name="drainer")
            dispatcher.await_workers(1, timeout=10)
            survivor = WorkerThread(host, port, store_dir, name="survivor")
            dispatcher.await_workers(2, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=dispatcher
            )
            assert canon(rates) == reference
            stats = dispatcher.stats
            assert stats.per_worker.get("drainer") == 1
            assert stats.drain_requeues == 1
            assert stats.retries == 0
            assert stats.completed == 3
        drainer.join()
        assert drainer.acked, "dispatcher never acknowledged the drain"
        survivor.join()

    def test_backup_hits_max_jobs_on_the_speculated_job(
        self, dist_analyzer, store_dir
    ):
        """The speculation backup reaches ``--max-jobs`` on the very
        job it was speculated onto: its answer must land (a win), its
        drain must retire it gracefully, and the straggler's silence
        must not touch the (zero) retry budget."""
        reference = canon(dist_analyzer.analyze(VDD))
        with make_dispatcher(
            store_dir, max_retries=0, speculation_threshold=0.3
        ) as dispatcher:
            host, port = dispatcher.start()
            straggler = HeartbeatingStraggler(host, port, name="straggler")
            dispatcher.await_workers(1, timeout=10)
            result = {}
            runner = threading.Thread(
                target=lambda: result.update(rates=dist_analyzer.analyze_sharded(
                    VDD, shards=1, dispatcher=dispatcher
                )),
                daemon=True,
            )
            runner.start()
            # The straggler is the only worker, so the one shard lands
            # on it deterministically; only then does the backup join.
            deadline = time.time() + 10
            while dispatcher.stats.assignments < 1:
                assert time.time() < deadline, "shard never assigned"
                time.sleep(0.01)
            backup = WorkerThread(
                host, port, store_dir, name="backup", max_jobs=1
            )
            runner.join(60)
            assert not runner.is_alive(), "dispatch did not complete"
            assert canon(result["rates"]) == reference
            stats = dispatcher.stats
            assert stats.speculations == 1
            assert stats.speculative_wins == 1
            assert stats.retries == 0
            assert stats.completed == 1
        assert backup.join() == 1  # drained cleanly after its one job
        straggler.join()
