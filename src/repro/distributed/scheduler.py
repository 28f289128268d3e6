"""The dispatcher's scheduling core: every policy decision, no I/O.

:class:`Scheduler` decides what happens to each job and worker of a
:class:`~repro.distributed.dispatcher.ShardDispatcher` — one FIFO job
queue, pull assignment, retries and graceful drain requeues, straggler
speculation, the streaming merge, run purge and journal adoption — and
keeps the in-memory record of it (:class:`DispatcherStats`, flight
events, spans, metrics).  It never awaits and touches no socket, store
or journal file.  A job's client is a label only (spans, per-client
queue depth, flight events): every job waits in submission order, and
every run still merges in shard-position order.  Each event takes
the current time ``now`` and returns the ordered commands the asyncio
shell runs; running them in order keeps the journal's write-ahead
order.  Replayed on a fake clock, an event sequence reproduces every
decision: ``tests/distributed/test_scheduler.py`` is that oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import (
    Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Set,
    Tuple, Union,
)

from repro.errors import ReproError
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import STATS_VERSION, MetricsRegistry, publish_counters
from repro.obs.tracing import NULL_SPAN, SpanLike, Tracer, get_tracer
from repro.distributed.jobs import ShardJob, job_address

#: Default seconds between worker heartbeats (dispatcher-chosen; the
#: value travels to workers in the ``welcome`` message).
DEFAULT_HEARTBEAT_INTERVAL = 1.0
#: Missed-heartbeat multiple after which a worker is presumed dead.
HEARTBEAT_TIMEOUT_FACTOR = 4.0
#: Adaptive speculation cutoff: ``SPECULATION_FACTOR`` × the
#: ``SPECULATION_QUANTILE`` of observed compute latencies, once
#: ``SPECULATION_MIN_SAMPLES`` completions have been seen.
SPECULATION_QUANTILE = 0.75
SPECULATION_FACTOR = 3.0
SPECULATION_MIN_SAMPLES = 5
#: Fleet events the flight recorder keeps.
FLIGHT_CAPACITY = 512


class DispatchError(ReproError):
    """A distributed run could not complete (retries exhausted, …)."""


@dataclass
class DispatcherStats:
    """Counters describing one dispatcher's lifetime of work.

    ``completed`` splits by where the answer came from: ``store_hits``
    (the dispatcher's own store, no assignment at all),
    ``worker_cache_hits`` (a worker's store lookup) and ``computed``
    (actually executed).  ``retries`` counts reassignments after worker
    death or failure; ``drain_requeues`` counts jobs handed back by a
    cleanly draining worker (``--max-jobs``) — those requeue without
    touching the retry budget; ``speculations`` counts duplicate
    assignments of straggler jobs and ``speculative_wins`` how often
    the backup answer arrived first; ``per_worker`` maps worker name →
    assignments, which is how an operator (or the smoke test) sees who
    did what.

    The ``stats`` probe reads these attributes; the dispatcher's
    collector publishes the same values as ``repro_dispatch_*`` series
    (``per_worker`` as ``repro_dispatch_worker_assignments_total``
    labeled by ``worker``).
    """

    jobs: int = 0
    completed: int = 0
    store_hits: int = 0
    worker_cache_hits: int = 0
    computed: int = 0
    assignments: int = 0
    retries: int = 0
    drain_requeues: int = 0
    speculations: int = 0
    speculative_wins: int = 0
    failures: int = 0
    workers_seen: int = 0
    workers_lost: int = 0
    #: A gauge: currently registered workers.
    active_workers: int = 0
    #: Journaled jobs re-enqueued by a ``--journal-dir`` replay (their
    #: completion was missing, or absent from the store).
    journal_replayed: int = 0
    #: Journaled jobs a replay did *not* re-enqueue: their completion
    #: record was present and the result still lives in the store.
    journal_skipped: int = 0
    per_worker: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (the ``stats`` probe response).

        Copies ``per_worker`` in one step, so the scrape-time collector
        may call this off the event loop that mutates it.
        """
        out: Dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["per_worker"] = dict(self.per_worker)
        return out

    def summary(self) -> str:
        return (
            f"{self.jobs} jobs: {self.store_hits} store hits, "
            f"{self.worker_cache_hits} worker cache hits, "
            f"{self.computed} computed, {self.retries} retries, "
            f"{self.speculations} speculations "
            f"({self.speculative_wins} won), "
            f"{self.failures} failures; "
            f"{self.active_workers} active / {self.workers_seen} seen / "
            f"{self.workers_lost} lost workers"
        )


class WorkerState:
    """One registered worker as the scheduler sees it."""

    def __init__(self, name: str, now: float):
        self.name = name
        self.last_seen = now
        self.current: Optional[_JobState] = None
        self.retired = False


class Run:
    """One submitted job list and its streaming merge: with ``merge``
    the jobs are ordered shards folded into one value, without it the
    decoded values come back as a list in job order."""

    def __init__(
        self,
        jobs: Sequence[ShardJob],
        decode: Optional[Callable[[Any], Any]] = None,
        merge: Optional[Callable[[Sequence[Any]], Any]] = None,
        client: str = "default",
        span: SpanLike = NULL_SPAN,
    ):
        self.jobs = list(jobs)
        self.decode = decode
        self.merge = merge
        self.client = client
        self.span = span  # parent of the run's job spans
        self.job_ids: Set[str] = {job.job_id for job in self.jobs}
        self.remaining = len(self.jobs)
        self.values: List[Any] = [None] * len(self.jobs)
        self.done = False
        self._buffer: Dict[int, Any] = {}
        self._merged: Any = None
        self._next = 0

    def accept(self, position: int, value: Any) -> bool:
        """Settle one position with its decoded value; True once all
        are settled.  ``None`` on a ``merge=None`` run just releases the
        slot (journal adoption moved the job to another run)."""
        if self.merge is None:
            self.values[position] = value
        else:
            # Fold the contiguous completed prefix: the merge is exact
            # (grouping-independent), so incremental folding returns the
            # same bits as a single merge over all shards — with O(gap)
            # instead of O(n_shards) held in memory.
            self._buffer[position] = value
            while self._next in self._buffer:
                head = self._buffer.pop(self._next)
                self._merged = (
                    head if self._merged is None
                    else self.merge([self._merged, head])
                )
                self._next += 1
        self.remaining -= 1
        return self.remaining == 0

    def result(self) -> Any:
        return self._merged if self.merge is not None else list(self.values)


#: One in-flight assignment: when it started, its trace span, and
#: whether it is a speculative (backup) copy.
_Slot = NamedTuple("_Slot", [("started", float), ("span", SpanLike), ("speculative", bool)])


class _JobState:
    """One job's dispatch bookkeeping."""

    def __init__(self, job: ShardJob, run: Run, position: int, span: SpanLike):
        self.job = job
        self.run = run
        self.position = position
        self.span = span  # the job's whole dispatch lifetime
        self.attempts = 0
        #: Workers computing it now (2 while a speculation race runs).
        self.assignees: Dict[WorkerState, _Slot] = {}
        #: A backup copy has been launched for the current attempt.
        self.speculated = False


# Commands an event returns, for the shell to run in order: send an
# ``assign``, store a computed result, journal a job spec (before any
# decision acts on it) or a merge-accepted completion, close a retired
# worker's connection, settle a run.
Assign = NamedTuple("Assign", [("worker", WorkerState), ("message", Dict[str, Any])])
Persist = NamedTuple("Persist", [("job", ShardJob), ("value", Any)])
JournalJob = NamedTuple("JournalJob", [("job", ShardJob)])
JournalDone = NamedTuple("JournalDone", [("job", ShardJob)])
CloseWorker = NamedTuple("CloseWorker", [("worker", WorkerState)])
RunFinished = NamedTuple("RunFinished", [("run", Run), ("value", Any)])
RunFailed = NamedTuple("RunFailed", [("run", Run), ("error", DispatchError)])
Command = Union[
    Assign, Persist, JournalJob, JournalDone, CloseWorker, RunFinished, RunFailed
]


def _finite_positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise DispatchError(f"{name} must be finite and positive, got {value}")
    return value


class Scheduler:
    """One dispatcher's policy (knobs: see ``ShardDispatcher``)."""

    def __init__(
        self,
        max_retries: int = 3,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        speculate: bool = True,
        speculation_threshold: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_retries < 0:
            raise DispatchError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = int(max_retries)
        self.heartbeat_interval = _finite_positive(
            "heartbeat_interval", heartbeat_interval
        )
        self.heartbeat_timeout = HEARTBEAT_TIMEOUT_FACTOR * self.heartbeat_interval
        self.speculate = bool(speculate)
        self.speculation_threshold = (
            None if speculation_threshold is None
            else _finite_positive("speculation_threshold", speculation_threshold)
        )
        self.stats = DispatcherStats()
        #: Filled from :meth:`snapshot` at scrape time; also owns the
        #: compute-latency histogram.
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Ring buffer of fleet events (worker churn, retries,
        #: speculation), dumped by the ``flight`` probe or on crash.
        self.flight = FlightRecorder(FLIGHT_CAPACITY)
        self._compute_hist = self.metrics.histogram("repro_dispatch_compute_seconds")
        self.metrics.add_collector(self._publish_metrics)
        self._gauge_labels: Dict[str, Set[str]] = {"kind": set(), "client": set()}
        #: Registered workers, in join order.
        self.workers: Dict[WorkerState, None] = {}
        self._idle: Deque[WorkerState] = deque()
        #: Jobs waiting for a worker, in FIFO order (may hold stale
        #: entries: see :meth:`_dequeue`).
        self._queue: Deque[_JobState] = deque()
        self._outstanding: Dict[str, _JobState] = {}
        #: Runs of journal-replayed jobs, held until a client resubmits
        #: (adopts) them or the fleet finishes them unprompted.
        self._recovery_runs: Set[Run] = set()
        #: Recent compute latencies (adaptive speculation cutoff).
        self._durations: Deque[float] = deque(maxlen=512)
        self._commands: List[Command] = []

    def _flush(self) -> List[Command]:
        commands, self._commands = self._commands, []
        return commands

    # -- events ---------------------------------------------------------
    def submit(self, run: Run, hits: Sequence[Any], now: float) -> List[Command]:
        """Queue ``run``; ``hits[i]`` is the dispatcher store's answer
        for job ``i`` (``None`` on a miss).  A rejected run (repeated
        or outstanding ids, an undecodable hit) raises before anything
        changes."""
        if len(run.job_ids) != len(run.jobs):
            raise DispatchError("job ids must be unique within a run")
        recovering = [
            st for st in self._outstanding.values() if st.run in self._recovery_runs
        ]
        clash = run.job_ids - {st.job.job_id for st in recovering}
        clash &= self._outstanding.keys()
        if clash:
            raise DispatchError(
                f"job ids already outstanding in another run: "
                f"{', '.join(sorted(clash))}"
            )
        # A client resubmitting journal-recovered content adopts the
        # recovery copy instead of double-queueing it (job *ids* are
        # fresh per submission, content addresses are not).
        adoptable = {job_address(st.job): st for st in recovering}
        plan: List[Tuple[ShardJob, Any, Optional[_JobState]]] = []
        for job, hit in zip(run.jobs, hits):
            recovered: Optional[_JobState] = None
            if hit is None and adoptable:
                recovered = adoptable.pop(job_address(job), None)
            if hit is None and recovered is None and job.job_id in self._outstanding:
                # Sharing a recovery job's id would hand its result to
                # the wrong payload.
                raise DispatchError(
                    f"job id {job.job_id} clashes with a "
                    f"journal-recovery job of different content"
                )
            if hit is not None and run.decode is not None:
                hit = run.decode(hit)
            plan.append((job, hit, recovered))

        for position, (job, hit, recovered) in enumerate(plan):
            if run.done:
                break  # a store hit's merge failed the run
            if recovered is not None:
                self._adopt(recovered, run, position, job)
                continue
            self.stats.jobs += 1
            self._commands.append(JournalJob(job))
            attrs = {"job_id": job.job_id}
            if hit is not None:
                attrs["outcome"] = "store_hit"
            span = self.tracer.start_span(f"job:{job.kind}", parent=run.span, attrs=attrs)
            if hit is None:
                self._track(_JobState(job, run, position, span))
                continue
            self.stats.store_hits += 1
            self.stats.completed += 1
            span.end()
            self._commands.append(JournalDone(job))
            self._settle(run, position, hit)
        self._pump(now)
        return self._flush()

    def recover(
        self, requeue: Sequence[ShardJob], skipped: int, now: float
    ) -> List[Command]:
        """Queue a journal replay's unfinished jobs as a recovery run;
        ``skipped`` completions were still in the store."""
        self.stats.journal_skipped += skipped
        if requeue:
            run = Run(requeue, client="journal-recovery")
            self._recovery_runs.add(run)
            for position, job in enumerate(requeue):
                self._track(_JobState(job, run, position, self.tracer.start_span(
                    f"job:{job.kind}", attrs={"job_id": job.job_id, "recovered": True},
                )))
                self.stats.jobs += 1
                self.stats.journal_replayed += 1
        self.flight.record("journal_replay", replayed=len(requeue), skipped=skipped)
        self._pump(now)
        return self._flush()

    def cancel(self, run: Run) -> None:
        """Abandon ``run``: its jobs leave the queues and late results
        are dropped as duplicates."""
        run.done = True
        for job_id in run.job_ids:
            state = self._outstanding.get(job_id)
            if state is not None and state.run is run:
                del self._outstanding[job_id]  # its queue entry goes stale

    def worker_joined(self, name: str, now: float) -> WorkerState:
        """Register a worker; it gets work once it reports :meth:`ready`."""
        worker = WorkerState(name, now)
        self.workers[worker] = None
        self.stats.workers_seen += 1
        self.stats.active_workers = len(self.workers)
        self.flight.record("worker_join", worker=name)
        return worker

    def heartbeat(self, worker: WorkerState, now: float) -> None:
        """Any message from ``worker`` proves it alive."""
        worker.last_seen = now

    def ready(self, worker: WorkerState, now: float) -> List[Command]:
        self._idle.append(worker)
        self._pump(now)
        return self._flush()

    def result(
        self, worker: WorkerState, job_id: str, value: Any, cached: bool,
        now: float,
    ) -> List[Command]:
        """Accept the first answer to an outstanding job.  An answer
        ``decode`` rejects is a failed attempt of the worker holding it,
        and so is an answer to a job other than the one it holds (the
        stray answer is dropped: it was never this worker's to give)."""
        held, worker.current = worker.current, None
        if held is not None and held.job.job_id != job_id:
            self._release(held, worker, (
                f"worker {worker.name!r} answered job {job_id!r} while "
                f"holding {held.job.job_id!r}"
            ), now)
            return self._flush()
        state = self._outstanding.get(job_id)
        if state is not None:
            try:
                decoded = value if state.run.decode is None else state.run.decode(value)
            except Exception as exc:
                if state is held:
                    self._release(state, worker, (
                        f"worker {worker.name!r} sent an undecodable result: {exc!r}"
                    ), now)
            else:
                self._complete(state, worker, value, decoded, cached, now)
        return self._flush()

    def error(self, worker: WorkerState, detail: str, now: float) -> List[Command]:
        """``worker`` failed the one job it holds (whatever ``job_id``
        it reports: one that cannot parse its assignment says ``"?"``)."""
        state, worker.current = worker.current, None
        if state is not None:
            self._release(state, worker, detail, now)
        return self._flush()

    def lost(
        self, worker: WorkerState, reason: str, now: float,
        count_lost: bool = True, graceful: bool = False,
    ) -> List[Command]:
        """Retire ``worker`` and requeue its job.  ``graceful`` marks an
        announced drain (an ``assign`` that crossed it on the wire
        spends no attempt); ``count_lost=False`` is not a loss."""
        if worker.retired:
            return self._flush()
        worker.retired = True
        self.workers.pop(worker, None)
        self.stats.workers_lost += count_lost
        self.stats.active_workers = len(self.workers)
        self.flight.record(
            "worker_drain" if graceful else
            ("worker_death" if count_lost else "worker_release"),
            worker=worker.name, reason=reason,
        )
        current, worker.current = worker.current, None
        self._commands.append(CloseWorker(worker))
        if current is not None:
            self._release(current, worker, f"worker {worker.name!r} {reason}", now, graceful)
        return self._flush()

    def tick(self, now: float) -> List[Command]:
        """Heartbeat watchdog: retire silent workers, launch speculation
        for stragglers that aged past the cutoff since the last event."""
        commands: List[Command] = []
        for worker in tuple(self.workers):
            if now - worker.last_seen > self.heartbeat_timeout:
                reason = f"missed heartbeats for {self.heartbeat_timeout:.1f}s"
                commands += self.lost(worker, reason, now)
        self._maybe_speculate(now)
        return commands + self._flush()

    # -- queues and assignment -------------------------------------------
    def _track(self, state: _JobState) -> None:
        self._outstanding[state.job.job_id] = state
        self._queue.append(state)

    def _queued(self, state: _JobState) -> bool:
        """False for a stale queue entry: answered while queued, or
        purged with its run."""
        return self._outstanding.get(state.job.job_id) is state

    def _dequeue(self) -> Optional[_JobState]:
        """The oldest queued job, skipping stale entries."""
        while self._queue:
            state = self._queue.popleft()
            if self._queued(state):
                return state
        return None

    def _next_idle(self) -> Optional[WorkerState]:
        while self._idle:
            worker = self._idle.popleft()
            if not worker.retired and worker.current is None:
                return worker
        return None

    def _pump(self, now: float) -> None:
        """Hand queued jobs to idle workers (pull-model assignment)."""
        while self._idle:
            state = self._dequeue()
            if state is None:
                break
            worker = self._next_idle()
            if worker is None:
                self._queue.appendleft(state)  # keeps its place
                break
            self._assign(worker, state, now, speculative=False)
        self._maybe_speculate(now)

    def _assign(
        self, worker: WorkerState, state: _JobState, now: float, speculative: bool
    ) -> None:
        worker.current = state
        self.stats.assignments += 1
        self.stats.per_worker[worker.name] = self.stats.per_worker.get(worker.name, 0) + 1
        if speculative:
            state.speculated = True
            self.stats.speculations += 1
            self.flight.record(
                "speculation_start", job_id=state.job.job_id, worker=worker.name,
            )
        span = self.tracer.start_span("assign", parent=state.span, attrs={
            "job_id": state.job.job_id, "worker": worker.name,
            "speculative": speculative, "attempt": state.attempts,
        })
        state.assignees[worker] = _Slot(now, span, speculative)
        message: Dict[str, Any] = {"type": "assign", "job": state.job.to_wire()}
        ctx = span.context()
        if ctx is not None:
            # Additive field: protocol peers ignore unknown keys, so the
            # trace context rides along without a version bump.
            message["trace"] = ctx.to_wire()
        self._commands.append(Assign(worker, message))

    def _speculation_cutoff(self) -> Optional[float]:
        """Current straggler age threshold (None = not speculating yet)."""
        if not self.speculate:
            return None
        if self.speculation_threshold is not None:
            return self.speculation_threshold
        if len(self._durations) < SPECULATION_MIN_SAMPLES:
            return None
        ordered = sorted(self._durations)
        index = min(len(ordered) - 1, int(SPECULATION_QUANTILE * len(ordered)))
        # Never speculate faster than the liveness machinery can tell a
        # straggler from a death.
        return max(ordered[index] * SPECULATION_FACTOR, self.heartbeat_interval)

    def _maybe_speculate(self, now: float) -> None:
        """Duplicate straggler jobs onto idle workers (first answer wins).
        The pump calls it last, once the queues are drained: speculation
        uses *spare* capacity, never capacity a queued job waits for."""
        cutoff = self._speculation_cutoff() if self._idle and self._outstanding else None
        if cutoff is None:
            return
        stragglers: List[Tuple[float, _JobState]] = []
        for state in self._outstanding.values():
            if not state.speculated and len(state.assignees) == 1:
                ((worker, slot),) = state.assignees.items()
                if not worker.retired and now - slot.started > cutoff:
                    stragglers.append((slot.started, state))
        for _, state in sorted(stragglers, key=lambda pair: pair[0]):  # oldest first
            worker = self._next_idle()
            if worker is None:
                return
            self._assign(worker, state, now, speculative=True)

    # -- outcomes ---------------------------------------------------------
    def _release(
        self, state: _JobState, worker: WorkerState, reason: str, now: float,
        graceful: bool = False,
    ) -> None:
        """Take ``worker`` off ``state`` and requeue the job once no live
        assignee is left.  A failure spends an attempt (the run fails
        when none is left); a graceful release — a draining worker
        handing its job back — does not, or a rolling drain of a
        healthy fleet could fail a perfectly computable job."""
        slot = state.assignees.pop(worker, None)
        if slot is not None:
            slot.span.set_attr("winner", False)
            slot.span.end(status="requeued" if graceful else "failed")
        if self._outstanding.get(state.job.job_id) is not state:
            return  # already answered (a duplicate won the race)
        if any(not w.retired for w in state.assignees):
            return  # the speculation partner is still computing it
        state.assignees.clear()
        job_id = state.job.job_id
        if graceful:
            self.stats.drain_requeues += 1
            self.flight.record("drain_requeue", job_id=job_id, worker=worker.name)
        else:
            state.attempts += 1
            if state.attempts > self.max_retries:
                self.stats.failures += 1
                self.flight.record(
                    "job_failed", job_id=job_id, attempts=state.attempts, reason=reason
                )
                state.span.set_attr("attempts", state.attempts)
                state.span.end(status="error")
                self._close(state.run, DispatchError(
                    f"job {job_id} failed after {state.attempts} attempts: {reason}"
                ))
                return
            self.stats.retries += 1
            self.flight.record("retry", job_id=job_id, attempt=state.attempts, reason=reason)
        state.speculated = False  # the fresh attempt may speculate again
        self._queue.append(state)
        self._pump(now)

    def _complete(
        self, state: _JobState, worker: WorkerState, value: Any, decoded: Any,
        cached: bool, now: float,
    ) -> None:
        del self._outstanding[state.job.job_id]
        slot = state.assignees.pop(worker, None)
        if slot is not None:
            if not cached:
                # Worker-cache answers are near-instant; they would drag
                # the straggler baseline toward zero and cause useless
                # (if harmless) speculation storms.
                self._durations.append(now - slot.started)
                self._compute_hist.observe(now - slot.started)
            if slot.speculative:
                self.stats.speculative_wins += 1
                self.flight.record(
                    "speculation_win", job_id=state.job.job_id, worker=worker.name,
                )
            slot.span.set_attr("winner", True)
            slot.span.set_attr("cached", cached)
            slot.span.end()
        self.stats.completed += 1
        if cached:
            self.stats.worker_cache_hits += 1
        else:
            self.stats.computed += 1
            # The dispatcher's store too: a worker's store may be a
            # private directory that never reaches the shared tier.
            self._commands.append(Persist(state.job, value))
        for loser in state.assignees.values():  # lost the speculation race
            loser.span.set_attr("winner", False)
            loser.span.end(status="lost_race")
        state.assignees.clear()
        state.span.set_attr("cached", cached)
        state.span.set_attr("attempts", state.attempts + 1)
        state.span.end()
        # Durable before the merge exposes the value: a crash after the
        # journal write skips the job on replay (workers persist to the
        # shared store before they report).
        self._commands.append(JournalDone(state.job))
        self._settle(state.run, state.position, decoded)

    def _settle(self, run: Run, position: int, value: Any) -> None:
        try:
            finished = run.accept(position, value)
        except Exception as exc:
            job_id = run.jobs[position].job_id
            self._close(run, DispatchError(f"merging job {job_id} failed: {exc!r}"))
            return
        if finished:
            self._close(run)

    def _close(self, run: Run, error: Optional[DispatchError] = None) -> None:
        """Finish (or, with ``error``, fail) a run and forget its jobs."""
        self.cancel(run)
        if run in self._recovery_runs:
            self._recovery_runs.discard(run)
            if error is None:
                self.flight.record("journal_recovered", jobs=len(run.job_ids))
            else:
                self.flight.record("journal_recovery_failed", error=str(error))
        self._commands.append(
            RunFinished(run, run.result()) if error is None else RunFailed(run, error)
        )

    def _adopt(self, state: _JobState, run: Run, position: int, job: ShardJob) -> None:
        """Hand a recovered job to the run that resubmitted its content.
        It keeps its *journaled* id — a worker computing it reports that
        id — so the run swaps its fresh id for the journaled one."""
        old_run, old_position = state.run, state.position
        run.job_ids.discard(job.job_id)
        run.job_ids.add(state.job.job_id)
        state.run, state.position = run, position
        self.flight.record(
            "journal_adopt", job_id=state.job.job_id,
            resubmitted_as=job.job_id, client=run.client,
        )
        state.span.set_attr("adopted_by", run.client)
        self._settle(old_run, old_position, None)

    # -- snapshots --------------------------------------------------------
    def queue_snapshot(self) -> Dict[str, Any]:
        """Live queue depths: total, in-flight, per job kind, per client
        (sustained depth with no idle capacity: the fleet is too small)."""
        per_kind: Dict[str, int] = {}
        per_client: Dict[str, int] = {}
        for state in self._queue:
            if self._queued(state):
                kind, client = state.job.kind, state.run.client
                per_kind[kind] = per_kind.get(kind, 0) + 1
                per_client[client] = per_client.get(client, 0) + 1
        return {
            "depth": sum(per_kind.values()),
            "inflight": sum(1 for st in self._outstanding.values() if st.assignees),
            "per_kind": dict(sorted(per_kind.items())),
            "per_client": dict(sorted(per_client.items())),
        }

    def snapshot(self) -> Dict[str, Any]:
        """The ``stats`` document: lifetime counters plus queue depths,
        compute latency (assignment → result, worker-cache answers
        excluded) and the speculation cutoff — the fleet-sizing signals
        ``top`` draws.  The probe and the metrics read it."""
        doc = self.stats.to_dict()
        doc["stats_version"] = STATS_VERSION
        doc["queues"] = self.queue_snapshot()
        ordered = sorted(self._durations)
        doc["latency"] = {
            "samples": len(ordered),
            "mean": sum(ordered) / len(ordered) if ordered else None,
            "p50": ordered[len(ordered) // 2] if ordered else None,
            "max": ordered[-1] if ordered else None,
        }
        doc["speculation"] = {
            "enabled": self.speculate, "cutoff": self._speculation_cutoff(),
        }
        return doc

    def _publish_metrics(self, registry: MetricsRegistry) -> None:
        """Collector hook, on the scraping thread: the snapshot only
        reads dicts the event loop mutates, and
        :meth:`MetricsRegistry.collect` swallows a mid-mutation race."""
        doc = self.snapshot()
        del doc["stats_version"]
        queues, latency = doc.pop("queues"), doc.pop("latency")
        cutoff = doc.pop("speculation")["cutoff"]
        per_worker = doc.pop("per_worker")
        registry.gauge("repro_dispatch_active_workers").set(doc.pop("active_workers"))
        publish_counters(registry, "repro_dispatch_", doc)
        for name, assignments in per_worker.items():
            registry.counter(
                "repro_dispatch_worker_assignments_total", {"worker": name}
            ).set(assignments)
        registry.gauge("repro_dispatch_queue_depth").set(queues["depth"])
        registry.gauge("repro_dispatch_inflight").set(queues["inflight"])
        for label, seen in self._gauge_labels.items():
            depths = queues[f"per_{label}"]
            # Zero out drained kinds/clients so the dashboard does not
            # show a stale backlog forever.
            for value in sorted(seen - set(depths)) + list(depths):
                registry.gauge(f"repro_dispatch_queue_depth_{label}", {label: value}).set(
                    depths.get(value, 0)
                )
            seen |= set(depths)
        registry.gauge("repro_dispatch_latency_samples").set(latency["samples"])
        for key in ("mean", "p50", "max"):
            if latency[key] is not None:
                registry.gauge(f"repro_dispatch_latency_{key}_seconds").set(latency[key])
        if cutoff is not None:
            registry.gauge("repro_dispatch_speculation_cutoff_seconds").set(cutoff)
