"""Crash-recovery integration: dispatcher restarts on a durable journal.

The acceptance bar (mirrored by ``examples/recovery_smoke.py`` with a
real SIGKILL across processes): a dispatcher restarted on the journal
of a dead predecessor resumes the sweep byte-identically, recomputes
nothing the journal marks complete, and hands replayed in-flight jobs
to the client that resubmits them.
"""

import threading

import pytest

from repro.distributed import DispatchError, RunJournal
from repro.distributed.client import request_stats
from repro.distributed.jobs import execute_job, margin_tally_jobs
from repro.runtime import ResultCache

from tests.distributed.conftest import WorkerThread, canon, make_dispatcher

VDD = 0.7


def margin_jobs(analyzer, shards=3):
    resolved = analyzer.resolved()
    return list(
        margin_tally_jobs(resolved, VDD, resolved.shard_plan(shards=shards))
    )


def flight_kinds(dispatcher):
    return [event["kind"] for event in dispatcher.flight.snapshot()]


class TestRestartOnJournal:
    def test_completed_journal_skips_every_job(
        self, dist_analyzer, store_dir, tmp_path
    ):
        """Restart after a fully finished sweep: every journaled
        completion is still in the store, so the replay enqueues
        nothing and a resubmitted sweep is pure store hits."""
        journal_dir = str(tmp_path / "journal")
        with make_dispatcher(
            store_dir, journal=RunJournal(journal_dir)
        ) as first:
            host, port = first.start()
            worker = WorkerThread(host, port, store_dir)
            first.await_workers(1, timeout=10)
            reference = canon(
                dist_analyzer.analyze_sharded(VDD, shards=3, dispatcher=first)
            )
        worker.join()

        with make_dispatcher(
            store_dir, journal=RunJournal(journal_dir)
        ) as second:
            second.start()
            # No worker this time: if anything needed computing, the
            # resubmitted sweep would hang instead of completing.
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=second
            )
            assert canon(rates) == reference
            stats = second.stats
            assert stats.journal_skipped == 3
            assert stats.journal_replayed == 0
            assert stats.store_hits == 3 and stats.computed == 0
            assert "journal_open" in flight_kinds(second)
            assert "journal_replay" in flight_kinds(second)

    def test_partial_journal_resumes_without_recompute(
        self, dist_analyzer, store_dir, tmp_path
    ):
        """The SIGKILL shape, built byte-exactly: all three jobs are
        journaled, one completed (persisted to the store, then marked
        done) before the 'crash'.  The restarted dispatcher must
        recompute only the other two, and the resubmitted sweep must
        merge byte-identically."""
        reference = canon(dist_analyzer.analyze(VDD))
        jobs = margin_jobs(dist_analyzer)
        store = ResultCache(store_dir)
        with RunJournal(str(tmp_path / "journal")) as journal:
            journal.open_session()
            for job in jobs:
                journal.record_job(job)
            # Complete job 0 exactly the way the system does: the
            # worker persists to the store *before* reporting, then the
            # dispatcher journals the merge-accepted completion.
            execute_job(jobs[0], store)
            journal.record_done(jobs[0])

        with make_dispatcher(
            store_dir, journal=RunJournal(str(tmp_path / "journal"))
        ) as dispatcher:
            host, port = dispatcher.start()
            worker = WorkerThread(host, port, store_dir)
            dispatcher.await_workers(1, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=dispatcher
            )
            assert canon(rates) == reference
            stats = dispatcher.stats
            assert stats.journal_skipped == 1
            assert stats.journal_replayed == 2
            # The zero-recompute contract: only the two unfinished jobs
            # were ever computed, no matter how the races resolved.
            assert stats.computed == 2
            assert stats.store_hits >= 1
            # The counters ride the stats probe for operators.
            probe = request_stats(host, port)
            assert probe["journal_replayed"] == 2
            assert probe["journal_skipped"] == 1
        worker.join()

    def test_client_adopts_inflight_recovery_jobs(
        self, dist_analyzer, store_dir, tmp_path
    ):
        """With no worker connected, replayed jobs sit queued; a client
        resubmitting the same sweep (fresh job ids) must adopt them by
        content address instead of double-queueing the work."""
        reference = canon(dist_analyzer.analyze(VDD))
        jobs = margin_jobs(dist_analyzer)
        with RunJournal(str(tmp_path / "journal")) as journal:
            for job in jobs:
                journal.record_job(job)

        with make_dispatcher(
            store_dir, journal=RunJournal(str(tmp_path / "journal"))
        ) as dispatcher:
            host, port = dispatcher.start()
            result = {}
            runner = threading.Thread(
                target=lambda: result.update(
                    rates=dist_analyzer.analyze_sharded(
                        VDD, shards=3, dispatcher=dispatcher
                    )
                ),
                daemon=True,
            )
            runner.start()
            # The resubmission adopts all three queued recovery jobs
            # before any worker exists; the queue must not double up.
            import time

            deadline = time.monotonic() + 10
            while flight_kinds(dispatcher).count("journal_adopt") < 3:
                assert time.monotonic() < deadline, "sweep never adopted"
                time.sleep(0.01)
            assert dispatcher.queue_snapshot()["depth"] == 3
            worker = WorkerThread(host, port, store_dir)
            runner.join(60)
            assert not runner.is_alive(), "adopted sweep did not complete"
            assert canon(result["rates"]) == reference
            stats = dispatcher.stats
            assert stats.journal_replayed == 3
            assert stats.computed == 3
            assert flight_kinds(dispatcher).count("journal_adopt") == 3
        worker.join()

    def test_resubmitting_a_recovery_job_id_with_other_content_fails(
        self, dist_analyzer, store_dir, tmp_path
    ):
        """A submitted job that *reuses* a queued recovery job's id but
        carries different content cannot be told apart on the wire —
        the dispatcher must refuse it loudly, not misdeliver results."""
        jobs = margin_jobs(dist_analyzer)
        with RunJournal(str(tmp_path / "journal")) as journal:
            journal.record_job(jobs[0])

        other = margin_jobs(dist_analyzer, shards=2)
        impostor = type(jobs[0]).from_wire(
            dict(other[0].to_wire(), job_id=jobs[0].job_id)
        )
        with make_dispatcher(
            store_dir, journal=RunJournal(str(tmp_path / "journal"))
        ) as dispatcher:
            dispatcher.start()
            with pytest.raises(DispatchError, match="journal-recovery"):
                dispatcher.dispatch([impostor], timeout=10)

    def test_ttl_zero_demotes_journaled_completions(
        self, dist_analyzer, store_dir, tmp_path
    ):
        """``--ttl 0`` treats every store entry as expired, so the
        replay's store cross-check must demote every ``done`` record
        back to pending — a completion the store cannot vouch for is
        not a completion."""
        journal_dir = str(tmp_path / "journal")
        with make_dispatcher(
            store_dir, journal=RunJournal(journal_dir)
        ) as first:
            host, port = first.start()
            worker = WorkerThread(host, port, store_dir)
            first.await_workers(1, timeout=10)
            reference = canon(
                dist_analyzer.analyze_sharded(VDD, shards=3, dispatcher=first)
            )
        worker.join()

        from repro.distributed import ShardDispatcher

        from tests.distributed.conftest import HEARTBEAT_INTERVAL

        store = ResultCache(store_dir, ttl=0.0)
        with ShardDispatcher(
            store=store,
            journal=RunJournal(journal_dir),
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as second:
            host, port = second.start()
            worker = WorkerThread(host, port, store_dir)
            second.await_workers(1, timeout=10)
            rates = dist_analyzer.analyze_sharded(
                VDD, shards=3, dispatcher=second
            )
            assert canon(rates) == reference
            stats = second.stats
            assert stats.journal_skipped == 0
            assert stats.journal_replayed == 3
        worker.join()
