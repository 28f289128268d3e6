"""The scheduling core on a fake clock: no sockets, threads or sleeps.

Pinned sequences check one policy each; a hypothesis property replays
random interleavings of joins, ready announcements, good, cached,
undecodable and stray results, errors, drains, deaths and ticks.
"""

from collections import Counter
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.devices import ptm22
from repro.distributed.jobs import margin_tally_jobs
from repro.distributed.scheduler import (
    Assign, CloseWorker, JournalDone, JournalJob, Persist, Run, RunFailed,
    RunFinished, Scheduler,
)
from repro.sram import make_cell
from repro.sram.montecarlo import MonteCarloAnalyzer

from tests.distributed.conftest import BLOCK_SAMPLES, N_SAMPLES


@lru_cache(maxsize=None)
def jobs_for(vdd, shards, tag):
    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()), n_samples=N_SAMPLES,
        block_samples=BLOCK_SAMPLES,
    ).resolved()
    return tuple(margin_tally_jobs(
        analyzer, vdd, analyzer.shard_plan(shards=shards), run_id=tag
    ))


def decode(raw):
    return [raw["v"]]  # a job's answer is its shard index; KeyError on junk


def concat(pair):
    return pair[0] + pair[1]


class Fleet:
    """A scheduler on a fake clock, and the job each worker holds."""

    def __init__(self, scheduler=Scheduler, **kwargs):
        self.core = scheduler(heartbeat_interval=1.0, **kwargs)
        self.now = 0.0
        self.log = []
        self.holding = {}

    def apply(self, commands):
        for command in commands:
            if isinstance(command, Assign):
                self.holding[command.worker] = command.message["job"]
        self.log += commands
        return commands

    def submit(self, jobs, merge=concat, hits=None, **kw):
        run = Run(jobs, decode, merge, kw.pop("client", "default"))
        hits = hits or [None] * len(jobs)
        self.apply(self.core.submit(run, hits, self.now))
        return run

    def join(self, name, ready=True):
        worker = self.core.worker_joined(name, self.now)
        if ready:
            self.ready(worker)
        return worker

    # Like the dispatcher, every message first proves its sender alive.
    def ready(self, worker):
        self.core.heartbeat(worker, self.now)
        return self.apply(self.core.ready(worker, self.now))

    def answer(self, worker, value=None, cached=False):
        self.core.heartbeat(worker, self.now)
        job = self.holding.pop(worker)
        value = value or {"v": job["shard_index"]}
        return self.apply(self.core.result(worker, job["job_id"], value, cached, self.now))

    def stray(self, worker, job_id):
        """``worker`` answers ``job_id`` (its shard index as the value)
        instead of the job it holds."""
        self.core.heartbeat(worker, self.now)
        self.holding.pop(worker)
        value = {"v": int(job_id.rsplit("-", 1)[1])}
        return self.apply(self.core.result(worker, job_id, value, False, self.now))

    def error(self, worker):
        self.core.heartbeat(worker, self.now)
        self.holding.pop(worker, None)
        return self.apply(self.core.error(worker, "scripted", self.now))

    def lost(self, worker, graceful=False):
        return self.apply(self.core.lost(
            worker, "gone", self.now, count_lost=not graceful, graceful=graceful
        ))

    def tick(self, advance):
        self.now += advance
        return self.apply(self.core.tick(self.now))

    def drain_queue(self, worker):
        while worker in self.holding:
            self.answer(worker)
            self.ready(worker)

    def outcome(self, run):
        ends = [c for c in self.log
                if isinstance(c, (RunFinished, RunFailed)) and c.run is run]
        assert len(ends) <= 1, "a run settled twice"
        return ends[0] if ends else None

    def flight(self):
        return [event["kind"] for event in self.core.flight.snapshot()]


def ids(jobs):
    return [job.job_id for job in jobs]


def assigned(fleet):
    return [c.message["job"]["job_id"] for c in fleet.log if isinstance(c, Assign)]


def test_one_fifo_queue_across_clients():
    fleet = Fleet(speculate=False)
    fleet.lost(fleet.join("gone"))  # retired, but still in the idle line
    alice, bob = jobs_for(0.65, 3, "alice"), jobs_for(0.6, 2, "bob")
    # The pump takes alice's first job, finds no idle worker and hands
    # it back: it keeps its place.
    fleet.submit(alice, client="alice")
    fleet.submit(bob, client="bob")
    assert fleet.core.queue_snapshot() == {
        "depth": 5, "inflight": 0, "per_kind": {"margin_tally": 5},
        "per_client": {"alice": 3, "bob": 2},
    }
    worker = fleet.join("w")
    fleet.error(worker)  # a released job goes to the back
    fleet.ready(worker)
    fleet.drain_queue(worker)
    # Submission order, whatever the client.
    assert assigned(fleet) == ids(alice) + ids(bob) + ids(alice)[:1]
    assert fleet.core.stats.per_worker == {"w": 6}


def test_drain_while_assigned_spends_no_attempt():
    fleet = Fleet(max_retries=0)
    drainer = fleet.join("drainer")
    run = fleet.submit(jobs_for(0.7, 1, "d"))
    assert fleet.lost(drainer, graceful=True) == [CloseWorker(drainer)]
    fleet.answer(fleet.join("survivor"))
    assert fleet.outcome(run) == RunFinished(run, [0])
    stats = fleet.core.stats
    assert (stats.drain_requeues, stats.retries, stats.workers_lost) == (1, 0, 0)
    assert {"worker_drain", "drain_requeue"} <= set(fleet.flight())


def test_speculation_backup_drains_on_the_job_it_won():
    fleet = Fleet(max_retries=0, speculation_threshold=0.3)
    straggler = fleet.join("straggler")
    run = fleet.submit(jobs_for(0.7, 1, "s"))
    fleet.tick(0.2)
    fleet.core.heartbeat(straggler, fleet.now)
    backup = fleet.join("backup")
    assert backup not in fleet.holding  # younger than the cutoff
    fleet.tick(0.2)
    fleet.answer(backup)
    fleet.lost(backup, graceful=True)  # its --max-jobs 1 is reached
    assert fleet.answer(straggler) == []  # a late duplicate
    fleet.tick(10.0)  # the straggler dies holding an answered job
    assert fleet.outcome(run) == RunFinished(run, [0])
    stats = fleet.core.stats
    assert (stats.speculations, stats.speculative_wins, stats.completed) == (1, 1, 1)
    assert (stats.retries, stats.drain_requeues, stats.workers_lost) == (0, 0, 1)


def test_speculation_waits_for_the_queue():
    fleet = Fleet(speculation_threshold=0.3)
    fleet.join("first")
    jobs = jobs_for(0.7, 2, "q")
    fleet.submit(jobs)
    fleet.tick(1.0)  # the first job straggles while the second is queued
    assert fleet.holding[fleet.join("second")]["job_id"] == jobs[1].job_id
    assert fleet.core.stats.speculations == 0


def test_retries_exhausted_fails_the_run():
    fleet = Fleet(max_retries=1)
    lemon = fleet.join("lemon")
    run = fleet.submit(jobs_for(0.7, 2, "r"))
    for _ in range(3):
        fleet.error(lemon)
        fleet.ready(lemon)
    assert "failed after 2 attempts" in str(fleet.outcome(run).error)
    assert fleet.core.stats.failures == 1
    assert (fleet.flight().count("retry"), fleet.flight().count("job_failed")) == (2, 1)
    assert fleet.core.queue_snapshot()["depth"] == 0  # the other job is purged


def test_stray_answer_releases_the_held_job():
    fleet = Fleet(speculate=False)
    w = fleet.join("w")
    run = fleet.submit(jobs_for(0.7, 2, "z"))
    assert fleet.holding[w]["job_id"] == "mt-z-0"
    fleet.stray(w, "mt-z-1")  # not merged: mt-z-1 is still queued
    fleet.lost(w)
    fleet.drain_queue(fleet.join("fresh"))
    assert fleet.outcome(run) == RunFinished(run, [0, 1])
    assert sorted(c.job.job_id for c in fleet.log if isinstance(c, Persist)) == [
        "mt-z-0", "mt-z-1",
    ]
    stats = fleet.core.stats
    assert (stats.retries, stats.completed, stats.computed) == (1, 2, 2)
    assert fleet.flight().count("retry") == 1


def test_merge_that_raises_fails_the_run():
    fleet = Fleet()
    worker = fleet.join("w")
    run = fleet.submit(jobs_for(0.7, 2, "m"), merge=lambda pair: 1 / 0)
    fleet.drain_queue(worker)
    assert "merging job" in str(fleet.outcome(run).error)


def test_journal_adoption():
    fleet = Fleet()
    journaled = jobs_for(0.7, 3, "journaled")
    fleet.apply(fleet.core.recover(
        list(journaled), 1, fleet.now
    ))
    # Same content under fresh ids adopts the queued recovery copies.
    run = fleet.submit(jobs_for(0.7, 3, "fresh"))
    assert not [c for c in fleet.log if isinstance(c, JournalJob)]
    assert fleet.core.queue_snapshot()["depth"] == 3
    assert fleet.flight()[-4:] == ["journal_adopt"] * 3 + ["journal_recovered"]
    fleet.drain_queue(fleet.join("w"))
    # Workers answer under the journaled ids, in the adopting run's order.
    assert assigned(fleet) == ids(journaled)
    assert fleet.outcome(run) == RunFinished(run, [0, 1, 2])
    stats = fleet.core.stats
    assert (stats.jobs, stats.journal_replayed, stats.journal_skipped) == (3, 3, 1)


class CheckedScheduler(Scheduler):
    """Checks the assignment invariants at the moment of assignment."""

    def _assign(self, worker, state, now, speculative):
        assert not worker.retired and worker.current is None
        # A queued job is held by no worker.
        assert not [st for st in self._queue if self._queued(st) and st.assignees]
        # Speculation only spends idle capacity no queued job waits for.
        assert not speculative or self.queue_snapshot()["depth"] == 0
        super()._assign(worker, state, now, speculative)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), max_retries=st.integers(0, 2),
       threshold=st.sampled_from([None, 0.5]), n_jobs=st.integers(1, 4))
def test_random_interleavings_keep_the_invariants(data, max_retries, threshold, n_jobs):
    fleet = Fleet(CheckedScheduler, max_retries=max_retries,
                  speculation_threshold=threshold)
    specs = [(jobs_for(0.7, n_jobs, "a"), "alice", list(range(n_jobs))),
             (jobs_for(0.65, 2, "b"), "bob", [[0], [1]])]
    runs, workers, announced = [], [], set()

    def submit():
        jobs, client, _ = specs[len(runs)]
        hits = [data.draw(st.sampled_from([None, {"v": job.shard_index}])) for job in jobs]
        # Bob collects raw values (merge=None).
        runs.append(fleet.submit(jobs, concat if client == "alice" else None, hits,
                                 client=client))

    for _ in range(data.draw(st.integers(0, 40))):
        live = [w for w in workers if not w.retired]
        idle = [w for w in live if w not in fleet.holding and w not in announced]
        holders = [w for w in workers if w in fleet.holding]  # retired ones too
        action = data.draw(st.sampled_from(
            ["tick"] + ["join"] * (len(workers) < 4) + ["ready"] * bool(idle)
            + ["good", "cached", "junk", "stray", "error"] * bool(holders)
            + ["drain", "die", "heartbeat"] * bool(live) + ["submit"] * (len(runs) < 2)
        ))
        if action == "join":
            workers.append(fleet.join(f"w{len(workers)}", ready=False))
        elif action == "ready":
            worker = data.draw(st.sampled_from(idle))
            announced.add(worker)
            fleet.ready(worker)
        elif action == "error":
            fleet.error(data.draw(st.sampled_from(holders)))
        elif action == "stray":  # answers another outstanding job's id
            worker = data.draw(st.sampled_from(holders))
            held = fleet.holding[worker]["job_id"]
            others = [job_id for run in runs if fleet.outcome(run) is None
                      for job_id in ids(run.jobs) if job_id != held]
            if others:
                fleet.stray(worker, data.draw(st.sampled_from(others)))
        elif action in ("good", "cached", "junk"):
            fleet.answer(data.draw(st.sampled_from(holders)), cached=action == "cached",
                         value={"junk": 1} if action == "junk" else None)
        elif action in ("drain", "die"):
            fleet.lost(data.draw(st.sampled_from(live)), graceful=action == "drain")
        elif action == "tick":
            fleet.tick(data.draw(st.sampled_from([0.3, 1.0, 5.0])))
        elif action == "heartbeat":
            fleet.core.heartbeat(data.draw(st.sampled_from(live)), fleet.now)
        else:
            submit()
        announced.difference_update(fleet.holding)  # an assignment uses a ready
    # Settle: submit what is left, drain the fleet, one worker finishes.
    while len(runs) < len(specs):
        submit()
    for worker in [w for w in workers if not w.retired]:
        fleet.lost(worker, graceful=True)
    fleet.drain_queue(fleet.join("closer"))

    accepted = Counter(c.job.job_id for c in fleet.log if isinstance(c, JournalDone))
    for command in fleet.log:
        if isinstance(command, Persist):
            assert command.value == {"v": command.job.shard_index}, "persisted junk"
    for run, (_, _, expected) in zip(runs, specs):
        outcome = fleet.outcome(run)
        assert outcome is not None, "a run never settled"
        if isinstance(outcome, RunFinished):  # merged in order, each job once
            assert outcome.value == expected
            assert [accepted.get(job_id) for job_id in ids(run.jobs)] == [1] * len(run.jobs)
        else:
            assert "failed after" in str(outcome.error)
    spent = Counter(e["job_id"] for e in fleet.core.flight.snapshot()
                    if e["kind"] in ("retry", "job_failed"))
    assert all(n <= max_retries + 1 for n in spent.values())  # within the budget
