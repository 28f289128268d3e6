"""The shard dispatcher: farm :class:`ShardJob`\\ s to a worker fleet.

Topology: the dispatcher listens on one TCP port; workers connect,
register and *pull* work (a worker announces ``ready``, the dispatcher
assigns at most one job per ready worker), so a slow worker never
accumulates a private backlog.  Results stream back inline and are
merged as they arrive; every result is also persisted to the shared
:class:`~repro.runtime.cache.CacheStore` twice over — by the worker
that computed it (to the worker's store) and by the dispatcher (to its
own store, off-loop), which is what warms a remote object store only
the dispatcher is configured to reach.  Double writes are harmless:
one content address, identical bytes.

Scheduling: the dispatcher serves any number of **concurrent runs**.
Each run enqueues under a *client* name with a *priority* (lower value
first); dequeue is round-robin across clients — one job per client per
turn — so a client submitting a thousand shards cannot starve one
submitting three.  Queue depths (total, per job kind, per client) ride
on the ``stats`` probe, which ``repro-sram top`` draws.

Failure model — everything reduces to *recompute is free, results are
exact*:

* **Dead or slow workers.**  Liveness is heartbeat-based (workers beat
  during computation, off their event loop).  A worker that misses
  ``heartbeat_timeout`` — or whose connection drops — is retired and
  its in-flight job is requeued, up to ``max_retries`` reassignments
  per job.
* **Stragglers.**  An alive-but-slow worker holds a job past the
  speculation threshold (a fixed cutoff, or a quantile of observed
  compute latencies); when idle capacity exists, the job is
  *speculatively* re-executed on a second worker and the first answer
  wins.  This is safe for the same reason retries are: results are
  content-addressed and bit-identical, so racing computations of one
  job produce the same bytes at one address.
* **Duplicated work.**  A retired-but-alive worker — or the loser of a
  speculation race — may still finish its shard.  Its late result is
  *accepted* if the job is still open (first answer wins — all answers
  are bit-identical by the determinism contract) and ignored
  otherwise; the shared store dedupes the wasted recompute for every
  future run.
* **Exactness.**  Merging uses the caller's exact reduce (integer
  tallies + ``fsum``, see :class:`~repro.sram.montecarlo.MarginTally`),
  and the merge is folded *streaming* over the contiguous completed
  prefix of the shard order — bounded dispatcher memory, bit-identical
  to any other grouping.

The combination is the acceptance bar of this subsystem: a sweep
dispatched to N workers, with any of them killed, stalled or
disconnected mid-run, produces byte-identical results to a monolithic
single-host run — the contract ``tests/distributed/chaos.py`` enforces
for every registered job kind.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import ReproError
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import STATS_VERSION, MetricsRegistry, publish_counters
from repro.obs.tracing import NULL_SPAN, SpanLike, TraceContext, Tracer, get_tracer
from repro.distributed.jobs import ShardJob
from repro.distributed.journal import JournaledJob, RunJournal, job_address
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    STREAM_LIMIT,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.runtime.cache import CacheStore

#: Default seconds between worker heartbeats (dispatcher-chosen; the
#: value travels to workers in the ``welcome`` message).
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Missed-heartbeat multiple after which a worker is presumed dead.
HEARTBEAT_TIMEOUT_FACTOR = 4.0


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


class _WorkerConn:
    """Dispatcher-side state of one registered worker connection."""

    def __init__(self, name: str, writer: "asyncio.StreamWriter", now: float):
        self.name = name
        self.writer = writer
        # Serializes handler replies, assignment tasks and shutdown on
        # one stream: two coroutines awaiting the same drain() is an
        # asyncio flow-control assertion error.
        self.write_lock = asyncio.Lock()
        self.last_seen = now
        self.current: Optional["_JobState"] = None
        self.retired = False

    async def send(self, payload: Dict[str, Any]) -> None:
        async with self.write_lock:
            await send_message(self.writer, payload)


class _JobState:
    """One job's dispatch bookkeeping (attempts, assignees, timings)."""

    def __init__(
        self, job: ShardJob, run: "_Run", position: int,
        client: str, priority: int,
    ):
        self.job = job
        self.run = run
        self.position = position
        self.client = client
        self.priority = priority
        self.seq = 0  # FIFO tiebreaker within a priority class
        self.attempts = 0
        #: Workers currently computing this job (2 while a speculation
        #: race is in flight).
        self.assignees: List[_WorkerConn] = []
        #: Subset of assignees that were speculative (backup) copies.
        self.speculative: Set[_WorkerConn] = set()
        #: Assignment time per worker (straggler age + latency samples).
        self.started: Dict[_WorkerConn, float] = {}
        #: A backup copy has been launched for the current attempt.
        self.speculated = False
        #: Trace span covering the job's whole dispatch lifetime.
        self.span: SpanLike = NULL_SPAN
        #: One open span per in-flight assignment (ends on win/loss/retry).
        self.assign_spans: Dict[_WorkerConn, SpanLike] = {}


class _Run:
    """One :meth:`ShardDispatcher.run` invocation: jobs + streaming merge."""

    def __init__(
        self,
        jobs: Sequence[ShardJob],
        decode: Optional[Callable[[Any], Any]],
        merge: Optional[Callable[[Sequence[Any]], Any]],
        client: str,
    ):
        self.future: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        self.decode = decode
        self.merge = merge
        self.client = client
        self.job_ids: Set[str] = {job.job_id for job in jobs}
        self.remaining = len(jobs)
        # merge=None collects raw values in job order instead.
        self.values: List[Any] = [None] * len(jobs)
        self._buffer: Dict[int, Any] = {}
        self._merged: Any = None
        self._next = 0

    def accept(self, position: int, value: Any) -> None:
        decoded = value if self.decode is None else self.decode(value)
        if self.merge is None:
            self.values[position] = decoded
        else:
            # Fold the contiguous completed prefix: the merge is exact
            # (grouping-independent), so incremental folding returns the
            # same bits as a single merge over all shards — with O(gap)
            # instead of O(n_shards) held in memory.
            self._buffer[position] = decoded
            while self._next in self._buffer:
                head = self._buffer.pop(self._next)
                self._merged = (
                    head if self._merged is None
                    else self.merge([self._merged, head])
                )
                self._next += 1
        self.remaining -= 1
        if self.remaining == 0 and not self.future.done():
            self.future.set_result(
                self._merged if self.merge is not None else list(self.values)
            )

    def forfeit(self, position: int) -> None:
        """Release one position without a value (its job was adopted by
        another run — journal recovery hands jobs over to the client
        that resubmitted them).  The slot stays ``None``; only runs
        collecting raw values (``merge=None``) may be forfeited from."""
        self.remaining -= 1
        if self.remaining == 0 and not self.future.done():
            self.future.set_result(
                self._merged if self.merge is not None else list(self.values)
            )

    def fail(self, exc: Exception) -> None:
        if not self.future.done():
            self.future.set_exception(exc)


class ShardDispatcher:
    """Work-queue dispatcher for :class:`~repro.distributed.jobs.ShardJob`\\ s.

    Two usage styles share one implementation:

    * **async** — ``server = await dispatcher.serve(host, port)`` then
      ``merged = await dispatcher.run(jobs, decode=..., merge=...)``
      inside an event loop the caller owns;
    * **sync facade** — ``host, port = dispatcher.start()`` spins the
      event loop on a daemon thread, ``dispatcher.dispatch(jobs, ...)``
      blocks until the merge completes, ``dispatcher.close()`` tears
      down.  This is what lets the synchronous analysis API
      (:meth:`~repro.sram.montecarlo.MonteCarloAnalyzer.analyze_sharded`
      with ``dispatcher=``) farm work out without going async itself.

    Parameters
    ----------
    store:
        Shared :class:`~repro.runtime.cache.CacheStore`.  The
        dispatcher consults it before queueing a job (resume support);
        ``None`` skips dispatcher-side lookups and leaves store use to
        the workers.
    max_retries:
        Reassignment budget per job; the run fails once one job has
        been handed out ``max_retries + 1`` times without an answer.
    heartbeat_interval / heartbeat_timeout:
        Liveness cadence; the timeout defaults to
        ``HEARTBEAT_TIMEOUT_FACTOR × interval``.
    journal:
        Optional :class:`~repro.distributed.journal.RunJournal` making
        accepted work durable: every job is journaled before it is
        queued and every merge-accepted completion after.  On
        :meth:`serve` the journal is replayed — completions still
        present in the store are skipped (``journal_skipped``), the
        unfinished remainder re-enqueues autonomously
        (``journal_replayed``), and a client resubmitting the same
        content *adopts* the recovered jobs instead of double-queueing
        them.  See ``docs/recovery.md``.
    speculate / speculation_threshold / speculation_quantile /
    speculation_factor / speculation_min_samples:
        Straggler re-execution policy.  A job held by exactly one live
        worker for longer than the threshold is duplicated onto an idle
        worker (first answer wins).  ``speculation_threshold`` fixes
        the cutoff in seconds; when ``None`` (the default) the cutoff
        adapts to the fleet — ``speculation_factor`` × the
        ``speculation_quantile`` of observed compute latencies, once
        ``speculation_min_samples`` completions have been seen.
        Speculation never consumes the retry budget and is off entirely
        with ``speculate=False``.
    """

    def __init__(
        self,
        store: Optional[CacheStore] = None,
        max_retries: int = 3,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: Optional[float] = None,
        speculate: bool = True,
        speculation_threshold: Optional[float] = None,
        speculation_quantile: float = 0.75,
        speculation_factor: float = 3.0,
        speculation_min_samples: int = 5,
        tracer: Optional[Tracer] = None,
        flight_capacity: int = 512,
        journal: Optional[RunJournal] = None,
    ):
        if max_retries < 0:
            raise DispatchError(f"max_retries must be >= 0, got {max_retries}")
        if heartbeat_interval <= 0:
            raise DispatchError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if speculation_threshold is not None and speculation_threshold <= 0:
            raise DispatchError(
                f"speculation_threshold must be positive, "
                f"got {speculation_threshold}"
            )
        if not 0.0 < speculation_quantile < 1.0:
            raise DispatchError(
                f"speculation_quantile must lie in (0, 1), "
                f"got {speculation_quantile}"
            )
        if speculation_factor < 1.0:
            raise DispatchError(
                f"speculation_factor must be >= 1, got {speculation_factor}"
            )
        if speculation_min_samples < 1:
            raise DispatchError(
                f"speculation_min_samples must be >= 1, "
                f"got {speculation_min_samples}"
            )
        self.store = store
        self.max_retries = int(max_retries)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = (
            float(heartbeat_timeout) if heartbeat_timeout is not None
            else HEARTBEAT_TIMEOUT_FACTOR * self.heartbeat_interval
        )
        self.speculate = bool(speculate)
        self.speculation_threshold = (
            None if speculation_threshold is None else float(speculation_threshold)
        )
        self.speculation_quantile = float(speculation_quantile)
        self.speculation_factor = float(speculation_factor)
        self.speculation_min_samples = int(speculation_min_samples)
        self.journal = journal
        self.stats = DispatcherStats()
        #: Registry a collector fills from ``stats`` and the live
        #: queue/latency state at scrape time; it also owns the
        #: compute-latency histogram, so one ``render_prometheus()``
        #: covers everything.
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Ring buffer of fleet events (worker churn, retries,
        #: speculation); dumpable via the ``flight`` probe or
        #: :meth:`repro.obs.flight.FlightRecorder.dump` on crash.
        self.flight = FlightRecorder(flight_capacity)
        self._compute_hist = self.metrics.histogram("repro_dispatch_compute_seconds")
        self.metrics.add_collector(self._publish_metrics)
        self._gauge_kinds: Set[str] = set()
        self._gauge_clients: Set[str] = set()
        self._workers: Set[_WorkerConn] = set()
        self._idle: Deque[_WorkerConn] = deque()
        #: Per-client priority heaps of (priority, seq, state).
        self._queues: Dict[str, List[Tuple[int, int, _JobState]]] = {}
        #: Round-robin order of clients with queued work.
        self._rr: Deque[str] = deque()
        self._seq = 0
        self._outstanding: Dict[str, _JobState] = {}
        #: Autonomous recovery runs holding journal-replayed jobs until
        #: a client resubmits (and adopts) them or the fleet finishes
        #: them unprompted.
        self._recovery_runs: Set[_Run] = set()
        #: Set once journal replay (or its absence) has populated the
        #: queues; :meth:`run` waits on it so resubmissions can adopt.
        self._replay_done: Optional[asyncio.Event] = None
        #: Recent compute latencies (assignment → result) feeding the
        #: adaptive speculation threshold.
        self._durations: Deque[float] = deque(maxlen=512)
        self._aloop: Optional[asyncio.AbstractEventLoop] = None
        self._worker_event: Optional[asyncio.Event] = None
        self._monitor_task: Optional["asyncio.Task[None]"] = None
        self._conn_tasks: Set["asyncio.Task[Any]"] = set()
        self._bg_tasks: Set["asyncio.Task[Any]"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        # Sync facade state.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Async API
    # ------------------------------------------------------------------
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Start the worker-facing TCP server (``port=0`` = ephemeral)."""
        self._aloop = asyncio.get_running_loop()
        self._worker_event = self._worker_event or asyncio.Event()
        self._replay_done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, host=host, port=port, limit=STREAM_LIMIT
        )
        self._monitor_task = asyncio.create_task(self._monitor())
        if self.journal is not None:
            self.journal.open_session()
            self._spawn(self._replay_journal())
        else:
            self._replay_done.set()
        return self._server

    def _spawn(self, coro: Any) -> None:
        """Fire a background task, keeping a strong reference until done
        (the event loop alone holds only a weak one — an assignment send
        must not be garbage-collected mid-flight)."""
        task = asyncio.create_task(coro)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)

    async def run(
        self,
        jobs: Sequence[ShardJob],
        decode: Optional[Callable[[Any], Any]] = None,
        merge: Optional[Callable[[Sequence[Any]], Any]] = None,
        client: str = "default",
        priority: int = 0,
        trace_parent: Optional[TraceContext] = None,
    ) -> Any:
        """Execute ``jobs`` on the fleet; return the (merged) results.

        With ``merge`` (and optional ``decode``) the jobs are treated
        as ordered shards and folded streaming into one value; without
        it, the decoded per-job values come back as a list in job
        order.  Raises :class:`DispatchError` when a job exhausts its
        retry budget — double-computation along the way is harmless
        (idempotent by cache address), a *lost* job is not.

        Any number of runs may be in flight concurrently: jobs queue
        under ``client`` (fair round-robin across clients) ordered by
        ``priority`` (lower dequeues first) then submit order.
        """
        if self._worker_event is None:
            raise DispatchError("dispatcher is not serving (call serve()/start())")
        if not jobs:
            raise DispatchError("cannot run an empty job list")
        if self._replay_done is not None:
            # Journal replay must finish populating the queues first, or
            # a resubmission racing the replay would double-queue work
            # the recovery run is about to claim.
            await self._replay_done.wait()
        ids = {job.job_id for job in jobs}
        if len(ids) != len(jobs):
            raise DispatchError("job ids must be unique within a run")
        clash = ids & {
            job_id for job_id, st in self._outstanding.items()
            if st.run not in self._recovery_runs
        }
        if clash:
            raise DispatchError(
                f"job ids already outstanding in another run: "
                f"{', '.join(sorted(clash))}"
            )
        run = _Run(jobs, decode, merge, client=str(client))
        run_span = self.tracer.start_span(
            "dispatch.run",
            parent=trace_parent,
            attrs={"client": run.client, "jobs": len(jobs)},
        )
        try:
            loop = asyncio.get_running_loop()
            if self.store is None:
                hits: List[Any] = [None] * len(jobs)
            else:
                # Store I/O off-loop (an NFS stall must not freeze
                # heartbeat monitoring) and concurrent — N serial
                # round-trips would delay the first assignment by
                # N x store latency on a resumed run.
                store = self.store
                hits = list(await asyncio.gather(*(
                    loop.run_in_executor(
                        None, store.get, job.namespace, job.payload
                    )
                    for job in jobs
                )))
            # Journal-recovered jobs still outstanding, by content
            # address: a client resubmitting the same content adopts
            # the in-flight recovery copy instead of double-queueing it
            # (job *ids* are fresh per submission, addresses are not).
            adoptable: Dict[Tuple[str, str], _JobState] = {}
            if self._recovery_runs:
                for st in self._outstanding.values():
                    if st.run in self._recovery_runs:
                        adoptable[job_address(st.job)] = st
            for position, (job, hit) in enumerate(zip(jobs, hits)):
                if hit is None and adoptable:
                    recovered = adoptable.pop(job_address(job), None)
                    if recovered is not None:
                        self._adopt(recovered, run, position, job)
                        continue
                self.stats.jobs += 1
                if self.journal is not None:
                    # Write-ahead: the job spec is durable before any
                    # scheduling decision acts on it.
                    self.journal.record_job(job, run.client, int(priority))
                if hit is not None:
                    self.stats.store_hits += 1
                    self.stats.completed += 1
                    hit_span = self.tracer.start_span(
                        f"job:{job.kind}",
                        parent=run_span,
                        attrs={"job_id": job.job_id, "outcome": "store_hit"},
                    )
                    hit_span.end()
                    if self.journal is not None:
                        self.journal.record_done(job)
                    run.accept(position, hit)
                else:
                    if self._outstanding.get(job.job_id) is not None:
                        # Same id as an un-adopted recovery job but
                        # different content: overwriting would hand the
                        # recovery copy's result to the wrong payload.
                        raise DispatchError(
                            f"job id {job.job_id} clashes with a "
                            f"journal-recovery job of different content"
                        )
                    state = _JobState(
                        job, run, position,
                        client=run.client, priority=int(priority),
                    )
                    state.span = self.tracer.start_span(
                        f"job:{job.kind}",
                        parent=run_span,
                        attrs={"job_id": job.job_id},
                    )
                    self._outstanding[job.job_id] = state
                    self._enqueue(state)
            self._pump()
            result = await run.future
            run_span.add_event("merged")
            run_span.end()
            return result
        except BaseException:
            run_span.end(status="error")
            raise
        finally:
            self._purge_run(run)

    async def wait_for_workers(self, n: int, timeout: Optional[float] = None) -> None:
        """Block until ``n`` workers are registered (for scripted runs)."""
        assert self._worker_event is not None, "serve() first"
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while len(self._workers) < n:
            self._worker_event.clear()
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                raise DispatchError(
                    f"timed out waiting for {n} workers "
                    f"({len(self._workers)} connected)"
                )
            try:
                await asyncio.wait_for(self._worker_event.wait(), remaining)
            except asyncio.TimeoutError:
                raise DispatchError(
                    f"timed out waiting for {n} workers "
                    f"({len(self._workers)} connected)"
                ) from None

    async def shutdown(self) -> None:
        """Stop serving: retire workers (with ``shutdown``) and close."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        for worker in tuple(self._workers):
            try:
                await worker.send({"type": "shutdown"})
            except (ConnectionError, OSError):
                pass
            self._retire(worker, "dispatcher shutdown", count_lost=False)
        for task in tuple(self._bg_tasks):
            task.cancel()
        if self._bg_tasks:
            await asyncio.gather(*self._bg_tasks, return_exceptions=True)
            self._bg_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Connection handlers linger on their final read; reap them so
        # the event loop closes without stray-task warnings.
        for task in tuple(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()

    # ------------------------------------------------------------------
    # Sync facade (daemon-thread event loop)
    # ------------------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise DispatchError("dispatcher already started")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        bound: List[Any] = []
        failure: List[BaseException] = []

        def _runner() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            try:
                server = self._loop.run_until_complete(self.serve(host, port))
            except BaseException as exc:
                # Bind failures (port in use, bad host) must surface in
                # start(), not strand it on started.wait() forever.
                failure.append(exc)
                started.set()
                self._loop.close()
                return
            bound.extend(server.sockets[0].getsockname()[:2])
            started.set()
            try:
                self._loop.run_forever()
            finally:
                self._loop.run_until_complete(self.shutdown())
                self._loop.close()

        self._thread = threading.Thread(
            target=_runner, name="repro-dispatcher", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._loop = None
            self._thread = None
            raise DispatchError(
                f"dispatcher could not listen on {host}:{port}: {failure[0]}"
            ) from failure[0]
        return str(bound[0]), int(bound[1])

    def dispatch(
        self,
        jobs: Sequence[ShardJob],
        decode: Optional[Callable[[Any], Any]] = None,
        merge: Optional[Callable[[Sequence[Any]], Any]] = None,
        timeout: Optional[float] = None,
        client: str = "default",
        priority: int = 0,
        trace_parent: Optional[TraceContext] = None,
    ) -> Any:
        """Blocking :meth:`run` against the daemon-thread event loop.

        Thread-safe: any number of caller threads may dispatch
        concurrently; their runs queue under their ``client`` names and
        share the fleet fairly.
        """
        if self._loop is None:
            raise DispatchError("dispatcher is not started (call start())")
        future = asyncio.run_coroutine_threadsafe(
            self.run(jobs, decode=decode, merge=merge,
                     client=client, priority=priority,
                     trace_parent=trace_parent),
            self._loop,
        )
        return future.result(timeout)

    def await_workers(self, n: int, timeout: Optional[float] = None) -> None:
        """Blocking :meth:`wait_for_workers` for the sync facade."""
        if self._loop is None:
            raise DispatchError("dispatcher is not started (call start())")
        asyncio.run_coroutine_threadsafe(
            self.wait_for_workers(n, timeout=timeout), self._loop
        ).result()

    def close(self) -> None:
        """Tear down the daemon-thread loop (idempotent)."""
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ShardDispatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scheduling core (event-loop thread only)
    # ------------------------------------------------------------------
    def _now(self) -> float:
        assert self._aloop is not None, "serve() first"
        return self._aloop.time()

    def _enqueue(self, state: _JobState) -> None:
        """Queue one job under its client's priority heap."""
        self._seq += 1
        state.seq = self._seq
        heap = self._queues.setdefault(state.client, [])
        heapq.heappush(heap, (state.priority, state.seq, state))
        if state.client not in self._rr:
            self._rr.append(state.client)

    def _dequeue(self) -> Optional[_JobState]:
        """Fair dequeue: one job from the next client in round-robin,
        best (priority, submit order) first within that client."""
        while self._rr:
            client = self._rr[0]
            heap = self._queues.get(client, [])
            state: Optional[_JobState] = None
            while heap:
                _, _, candidate = heapq.heappop(heap)
                # Skip stale entries: answered while queued (late
                # duplicate or store write), or purged with a failed run.
                if self._outstanding.get(candidate.job.job_id) is candidate:
                    state = candidate
                    break
            if state is None:
                self._rr.popleft()
                self._queues.pop(client, None)
                continue
            self._rr.rotate(-1)  # this client goes to the back
            return state
        return None

    def _next_idle(self) -> Optional[_WorkerConn]:
        while self._idle:
            worker = self._idle.popleft()
            if not worker.retired and worker.current is None:
                return worker
        return None

    def _pump(self) -> None:
        """Hand queued jobs to idle workers (pull-model assignment)."""
        while self._idle:
            state = self._dequeue()
            if state is None:
                break
            worker = self._next_idle()
            if worker is None:
                # No live idle worker after all; requeue for the next
                # ready announcement.
                self._enqueue(state)
                break
            self._assign(worker, state, speculative=False)
        self._maybe_speculate()

    def _assign(
        self, worker: _WorkerConn, state: _JobState, speculative: bool
    ) -> None:
        worker.current = state
        state.assignees.append(worker)
        state.started[worker] = self._now()
        self.stats.assignments += 1
        self.stats.per_worker[worker.name] = (
            self.stats.per_worker.get(worker.name, 0) + 1
        )
        if speculative:
            state.speculated = True
            state.speculative.add(worker)
            self.stats.speculations += 1
            self.flight.record(
                "speculation_start",
                job_id=state.job.job_id, worker=worker.name,
            )
        state.assign_spans[worker] = self.tracer.start_span(
            "assign",
            parent=state.span,
            attrs={
                "job_id": state.job.job_id,
                "worker": worker.name,
                "speculative": speculative,
                "attempt": state.attempts,
            },
        )
        self._spawn(self._send_assign(worker, state))

    def _speculation_cutoff(self) -> Optional[float]:
        """Current straggler age threshold (None = not speculating yet)."""
        if not self.speculate:
            return None
        if self.speculation_threshold is not None:
            return self.speculation_threshold
        if len(self._durations) < self.speculation_min_samples:
            return None
        ordered = sorted(self._durations)
        index = min(
            len(ordered) - 1, int(self.speculation_quantile * len(ordered))
        )
        # Never speculate faster than the liveness machinery can tell a
        # straggler from a death.
        return max(ordered[index] * self.speculation_factor,
                   self.heartbeat_interval)

    def _maybe_speculate(self) -> None:
        """Duplicate straggler jobs onto idle workers (first answer wins).

        Only runs when fresh work is drained (the pump calls this after
        emptying the queues) — speculation consumes *spare* capacity,
        never capacity a queued job is waiting for.
        """
        if not self._idle or not self._outstanding:
            return
        cutoff = self._speculation_cutoff()
        if cutoff is None:
            return
        now = self._now()
        candidates: List[Tuple[float, _JobState]] = []
        for state in self._outstanding.values():
            if state.speculated or len(state.assignees) != 1:
                continue
            worker = state.assignees[0]
            if worker.retired:
                continue
            age = now - state.started.get(worker, now)
            if age > cutoff:
                candidates.append((age, state))
        candidates.sort(key=lambda pair: -pair[0])  # oldest stragglers first
        for _, state in candidates:
            worker = self._next_idle()
            if worker is None:
                return
            self._assign(worker, state, speculative=True)

    async def _send_assign(self, worker: _WorkerConn, state: _JobState) -> None:
        payload: Dict[str, Any] = {"type": "assign", "job": state.job.to_wire()}
        span = state.assign_spans.get(worker, NULL_SPAN)
        ctx = span.context()
        if ctx is not None:
            # Additive field: protocol peers ignore unknown keys, so the
            # trace context rides along without a version bump.
            payload["trace"] = ctx.to_wire()
        try:
            await worker.send(payload)
        except (ConnectionError, OSError):
            self._retire(worker, "connection lost during assignment")

    def _job_failed(
        self, state: _JobState, worker: Optional[_WorkerConn], reason: str
    ) -> None:
        """One assignee failed a job; requeue once no assignee is left."""
        if worker is not None:
            if worker in state.assignees:
                state.assignees.remove(worker)
            state.started.pop(worker, None)
            state.speculative.discard(worker)
            failed_span = state.assign_spans.pop(worker, None)
            if failed_span is not None:
                failed_span.set_attr("winner", False)
                failed_span.end(status="failed")
        if self._outstanding.get(state.job.job_id) is not state:
            return  # already answered (a duplicate won the race)
        if any(not w.retired for w in state.assignees):
            return  # the speculation partner is still computing it
        state.assignees.clear()
        state.attempts += 1
        if state.attempts > self.max_retries:
            self.stats.failures += 1
            self._outstanding.pop(state.job.job_id, None)
            self.flight.record(
                "job_failed",
                job_id=state.job.job_id,
                attempts=state.attempts, reason=reason,
            )
            state.span.set_attr("attempts", state.attempts)
            state.span.end(status="error")
            state.run.fail(DispatchError(
                f"job {state.job.job_id} failed after "
                f"{state.attempts} attempts: {reason}"
            ))
            self._purge_run(state.run)
            return
        self.stats.retries += 1
        self.flight.record(
            "retry",
            job_id=state.job.job_id,
            attempt=state.attempts, reason=reason,
        )
        state.speculated = False  # the fresh attempt may speculate again
        self._enqueue(state)
        self._pump()

    def _job_requeued(self, state: _JobState, worker: _WorkerConn) -> None:
        """A cleanly draining worker handed its job back: requeue it
        without burning an attempt.

        Unlike :meth:`_job_failed`, nothing went wrong — the worker hit
        its ``--max-jobs`` drain while an assignment was still in
        flight.  Counting that against the
        retry budget would let a rolling drain of a healthy fleet fail
        a perfectly computable job.
        """
        if worker in state.assignees:
            state.assignees.remove(worker)
        state.started.pop(worker, None)
        state.speculative.discard(worker)
        drained_span = state.assign_spans.pop(worker, None)
        if drained_span is not None:
            drained_span.set_attr("winner", False)
            drained_span.end(status="requeued")
        if self._outstanding.get(state.job.job_id) is not state:
            return  # already answered
        if any(not w.retired for w in state.assignees):
            return  # a speculation partner still holds it
        state.assignees.clear()
        self.stats.drain_requeues += 1
        self.flight.record(
            "drain_requeue", job_id=state.job.job_id, worker=worker.name,
        )
        state.speculated = False
        self._enqueue(state)
        self._pump()

    def _purge_run(self, run: _Run) -> None:
        """Forget a finished run's jobs (queued heap entries go stale
        and are skipped at dequeue)."""
        for job_id in run.job_ids:
            state = self._outstanding.get(job_id)
            if state is not None and state.run is run:
                del self._outstanding[job_id]

    # ------------------------------------------------------------------
    # Journal recovery (event-loop thread only)
    # ------------------------------------------------------------------
    def _adopt(
        self, state: _JobState, run: _Run, position: int, job: ShardJob
    ) -> None:
        """Hand a journal-recovered job over to the run that resubmitted
        its content.

        The recovered :class:`_JobState` keeps its *journaled* job id —
        a worker already computing it will report that id — so the
        adopting run's id set swaps the fresh id for the journaled one.
        The recovery run forfeits the position it was tracking.
        """
        old_run = state.run
        old_run.forfeit(state.position)
        run.job_ids.discard(job.job_id)
        run.job_ids.add(state.job.job_id)
        state.run = run
        state.position = position
        self.flight.record(
            "journal_adopt",
            job_id=state.job.job_id,
            resubmitted_as=job.job_id,
            client=run.client,
        )
        state.span.set_attr("adopted_by", run.client)

    async def _replay_journal(self) -> None:
        """Replay the journal on startup: skip completions still in the
        store, re-enqueue the unfinished remainder as an autonomous
        recovery run.  Never fails serving — a corrupt journal degrades
        to an empty replay with a ``journal_error`` flight event."""
        journal = self.journal
        assert journal is not None and self._replay_done is not None
        loop = asyncio.get_running_loop()
        try:
            replay = await loop.run_in_executor(None, journal.replay)
            self.flight.record(
                "journal_open",
                path=str(journal.path),
                records=replay.records,
                pending=len(replay.pending),
                done=len(replay.done),
                torn=replay.torn,
                unknown=len(replay.unknown),
                orphan_done=replay.orphan_done,
            )
            for entry in replay.unknown:
                self.flight.record("journal_unknown_job", **entry)
            if not replay.pending and not replay.done:
                return  # fresh journal: nothing to recover
            if self.store is None:
                # No store to cross-check against: trust the journal's
                # completion records as-is.
                skipped = list(replay.done)
                missing: List[JournaledJob] = []
            else:
                # A completion record only skips recomputation while its
                # result is still addressable (``--ttl 0`` or eviction
                # demotes it back to pending).  Checks run off-loop and
                # concurrently, like the run() prefetch.
                store = self.store
                presence = list(await asyncio.gather(*(
                    loop.run_in_executor(
                        None, store.get, entry.job.namespace, entry.job.payload
                    )
                    for entry in replay.done
                )))
                skipped = [
                    entry for entry, hit in zip(replay.done, presence)
                    if hit is not None
                ]
                missing = [
                    entry for entry, hit in zip(replay.done, presence)
                    if hit is None
                ]
            self.stats.journal_skipped += len(skipped)
            requeue = list(replay.pending) + missing
            if requeue:
                run = _Run(
                    [entry.job for entry in requeue],
                    None, None, client="journal-recovery",
                )
                self._recovery_runs.add(run)
                for position, entry in enumerate(requeue):
                    state = _JobState(
                        entry.job, run, position,
                        client=entry.client, priority=entry.priority,
                    )
                    state.span = self.tracer.start_span(
                        f"job:{entry.job.kind}",
                        attrs={"job_id": entry.job.job_id, "recovered": True},
                    )
                    self._outstanding[entry.job.job_id] = state
                    self._enqueue(state)
                    self.stats.jobs += 1
                    self.stats.journal_replayed += 1
                self._spawn(self._finish_recovery(run))
            self.flight.record(
                "journal_replay",
                replayed=len(requeue), skipped=len(skipped),
            )
            self._pump()
        except Exception as exc:
            # Serving must survive any journal pathology; recovery is
            # best-effort on top of an otherwise healthy dispatcher.
            self.flight.record("journal_error", error=str(exc))
        finally:
            self._replay_done.set()

    async def _finish_recovery(self, run: _Run) -> None:
        """Reap the autonomous recovery run once every replayed job has
        completed, failed, or been adopted by a resubmitting client."""
        try:
            await run.future
            self.flight.record("journal_recovered", jobs=len(run.job_ids))
        except DispatchError as exc:
            self.flight.record("journal_recovery_failed", error=str(exc))
        finally:
            self._recovery_runs.discard(run)
            self._purge_run(run)

    def _retire(
        self, worker: _WorkerConn, reason: str, count_lost: bool = True,
        graceful: bool = False,
    ) -> None:
        """Drop one worker, requeueing whatever it was computing.

        ``graceful`` marks an announced clean exit (worker ``shutdown``
        after a ``--max-jobs`` drain): an in-flight job — an ``assign``
        that crossed the announcement on the wire — requeues via
        :meth:`_job_requeued` without consuming its retry budget.
        """
        if worker.retired:
            return
        worker.retired = True
        self._workers.discard(worker)
        if count_lost:
            self.stats.workers_lost += 1
        self.stats.active_workers = len(self._workers)
        self.flight.record(
            "worker_drain" if graceful else
            ("worker_death" if count_lost else "worker_release"),
            worker=worker.name, reason=reason,
        )
        current, worker.current = worker.current, None
        try:
            worker.writer.close()
        except Exception:  # pragma: no cover - transport teardown
            pass
        if current is not None:
            if graceful:
                self._job_requeued(current, worker)
            else:
                self._job_failed(
                    current, worker, f"worker {worker.name!r} {reason}"
                )

    def _complete(
        self, job_id: str, value: Any, cached: bool,
        worker: Optional[_WorkerConn] = None,
    ) -> None:
        """Accept one result; duplicates of answered jobs are dropped."""
        state = self._outstanding.pop(job_id, None)
        if state is None:
            return
        if worker is not None:
            started = state.started.get(worker)
            if started is not None and not cached:
                # Worker-cache answers are near-instant; they would drag
                # the straggler baseline toward zero and cause useless
                # (if harmless) speculation storms.
                elapsed = self._now() - started
                self._durations.append(elapsed)
                self._compute_hist.observe(elapsed)
            if worker in state.speculative:
                self.stats.speculative_wins += 1
                self.flight.record(
                    "speculation_win", job_id=job_id, worker=worker.name,
                )
        self.stats.completed += 1
        if cached:
            self.stats.worker_cache_hits += 1
        else:
            self.stats.computed += 1
            if self.store is not None:
                # Persist freshly computed results to the dispatcher's
                # own store too: a worker's store may be a private
                # directory that never reaches the shared remote tier.
                self._spawn(self._persist(state.job, value))
        if worker is not None:
            winner_span = state.assign_spans.pop(worker, None)
            if winner_span is not None:
                winner_span.set_attr("winner", True)
                winner_span.set_attr("cached", cached)
                winner_span.end()
        # Any assignment still open lost the speculation race.
        for loser_span in state.assign_spans.values():
            loser_span.set_attr("winner", False)
            loser_span.end(status="lost_race")
        state.assign_spans.clear()
        state.span.set_attr("cached", cached)
        state.span.set_attr("attempts", state.attempts + 1)
        state.span.end()
        if self.journal is not None:
            # Completion is durable before the merge exposes the value:
            # a crash after this line skips the job on replay (its
            # result is already in the shared store — workers persist
            # before they report).
            self.journal.record_done(state.job)
        state.run.accept(state.position, value)

    def queue_snapshot(self) -> Dict[str, Any]:
        """Live queue depths: total, in-flight, per job kind, per client.

        This — exposed on the ``stats`` probe and drawn by ``top`` — is
        the fleet-sizing signal: sustained ``depth`` with zero idle
        capacity means the fleet is too small, nonzero speculation with
        an empty queue means it is unbalanced.
        """
        per_kind: Dict[str, int] = {}
        per_client: Dict[str, int] = {}
        depth = 0
        for client, heap in self._queues.items():
            for _, _, state in heap:
                if self._outstanding.get(state.job.job_id) is not state:
                    continue  # stale entry
                if state.assignees:
                    continue
                depth += 1
                per_kind[state.job.kind] = per_kind.get(state.job.kind, 0) + 1
                per_client[client] = per_client.get(client, 0) + 1
        inflight = sum(
            1 for state in self._outstanding.values() if state.assignees
        )
        return {
            "depth": depth,
            "inflight": inflight,
            "per_kind": {k: per_kind[k] for k in sorted(per_kind)},
            "per_client": {c: per_client[c] for c in sorted(per_client)},
        }

    def latency_snapshot(self) -> Dict[str, Any]:
        """Observed compute-latency summary (assignment → result).

        Worker-cache answers are excluded (see :meth:`_complete`), so
        the numbers describe genuine compute time.  Exposed on the
        ``stats`` probe next to :meth:`queue_snapshot` and drawn by
        ``top`` — together they size the fleet: *queue depth × mean
        compute latency* estimates the backlog in seconds.
        """
        if not self._durations:
            return {"samples": 0, "mean": None, "p50": None, "max": None}
        ordered = sorted(self._durations)
        return {
            "samples": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "p50": ordered[len(ordered) // 2],
            "max": ordered[-1],
        }

    def _publish_metrics(self, registry: MetricsRegistry) -> None:
        """Collector hook: publish ``stats`` and the live queue/latency
        gauges at scrape time.

        Runs on the scraping thread; the snapshots only read dicts the
        event loop mutates, and :meth:`MetricsRegistry.collect` swallows
        the rare mid-mutation race.
        """
        counters = self.stats.to_dict()
        per_worker = counters.pop("per_worker")
        registry.gauge("repro_dispatch_active_workers").set(
            counters.pop("active_workers")
        )
        publish_counters(registry, "repro_dispatch_", counters)
        for name, assignments in per_worker.items():
            registry.counter(
                "repro_dispatch_worker_assignments_total", {"worker": name}
            ).set(assignments)
        snap = self.queue_snapshot()
        registry.gauge("repro_dispatch_queue_depth").set(snap["depth"])
        registry.gauge("repro_dispatch_inflight").set(snap["inflight"])
        # Zero out kinds/clients that drained so the dashboard does not
        # show a stale backlog forever.
        for kind in self._gauge_kinds - set(snap["per_kind"]):
            registry.gauge("repro_dispatch_queue_depth_kind", {"kind": kind}).set(0)
        for client in self._gauge_clients - set(snap["per_client"]):
            registry.gauge(
                "repro_dispatch_queue_depth_client", {"client": client}
            ).set(0)
        self._gauge_kinds |= set(snap["per_kind"])
        self._gauge_clients |= set(snap["per_client"])
        for kind, depth in snap["per_kind"].items():
            registry.gauge(
                "repro_dispatch_queue_depth_kind", {"kind": kind}
            ).set(depth)
        for client, depth in snap["per_client"].items():
            registry.gauge(
                "repro_dispatch_queue_depth_client", {"client": client}
            ).set(depth)
        latency = self.latency_snapshot()
        registry.gauge("repro_dispatch_latency_samples").set(latency["samples"])
        if latency["mean"] is not None:
            registry.gauge(
                "repro_dispatch_latency_mean_seconds"
            ).set(latency["mean"])
            registry.gauge("repro_dispatch_latency_p50_seconds").set(latency["p50"])
            registry.gauge("repro_dispatch_latency_max_seconds").set(latency["max"])
        cutoff = self._speculation_cutoff()
        if cutoff is not None:
            registry.gauge(
                "repro_dispatch_speculation_cutoff_seconds"
            ).set(cutoff)

    async def _persist(self, job: ShardJob, value: Any) -> None:
        """Store one computed result off-loop (failures degrade caching
        only — the value already travelled inline)."""
        assert self.store is not None
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                None, self.store.put, job.namespace, job.payload, value
            )
        except Exception:
            pass

    async def _monitor(self) -> None:
        """Heartbeat watchdog: retire silent workers, launch speculation
        for stragglers that aged past the cutoff since the last event."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = loop.time()
            for worker in tuple(self._workers):
                if now - worker.last_seen > self.heartbeat_timeout:
                    self._retire(
                        worker,
                        f"missed heartbeats for {self.heartbeat_timeout:.1f}s",
                    )
            self._maybe_speculate()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        worker: Optional[_WorkerConn] = None
        loop = asyncio.get_running_loop()

        async def reply(payload: Dict[str, Any]) -> None:
            # Registered workers also receive assignment tasks on this
            # stream; their lock serializes the two writers.
            if worker is not None:
                await worker.send(payload)
            else:
                await send_message(writer, payload)

        try:
            while True:
                try:
                    message = await recv_message(reader)
                except ProtocolError as exc:
                    try:
                        await reply({"type": "error", "error": str(exc)})
                    except (ConnectionError, OSError):
                        pass
                    break  # cannot resynchronize a broken line stream
                if message is None:
                    break
                kind = message["type"]
                if worker is not None:
                    worker.last_seen = loop.time()

                if kind == "stats":
                    stats_doc = self.stats.to_dict()
                    stats_doc["stats_version"] = STATS_VERSION
                    # Live scheduling state rides along with the
                    # lifetime counters: queue depths (total / per job
                    # kind / per client) and the current speculation
                    # cutoff — the fleet-sizing signals ``top`` draws.
                    stats_doc["queues"] = self.queue_snapshot()
                    stats_doc["latency"] = self.latency_snapshot()
                    stats_doc["speculation"] = {
                        "enabled": self.speculate,
                        "cutoff": self._speculation_cutoff(),
                    }
                    if self.store is not None:
                        # Per-tier hit/miss/byte/latency/error counters
                        # (see docs/caching.md) ride along with the
                        # scheduling counters.
                        stats_doc["store"] = self.store.stats_payload()
                    await reply({
                        "type": "stats", "ok": True, "stats": stats_doc,
                    })
                elif kind == "flight":
                    # Flight-recorder dump: the recent-fleet-events ring
                    # buffer, for post-hoc "what just happened" queries.
                    await reply({
                        "type": "flight", "ok": True,
                        "events": self.flight.snapshot(),
                        "recorded": self.flight.recorded,
                    })
                elif kind == "register":
                    if message.get("protocol") != PROTOCOL_VERSION:
                        await reply({
                            "type": "error",
                            "error": (
                                f"protocol mismatch: dispatcher speaks "
                                f"{PROTOCOL_VERSION}, worker sent "
                                f"{message.get('protocol')!r}"
                            ),
                        })
                        break
                    name = str(message.get("name") or f"worker-{id(writer):x}")
                    worker = _WorkerConn(name, writer, loop.time())
                    self._workers.add(worker)
                    self.stats.workers_seen += 1
                    self.stats.active_workers = len(self._workers)
                    self.flight.record("worker_join", worker=name)
                    assert self._worker_event is not None
                    self._worker_event.set()
                    await worker.send({
                        "type": "welcome",
                        "heartbeat_interval": self.heartbeat_interval,
                        "store": (
                            None if self.store is None else self.store.describe()
                        ),
                    })
                elif worker is None:
                    await reply({
                        "type": "error",
                        "error": f"{kind!r} before 'register'",
                    })
                elif kind == "heartbeat":
                    pass  # last_seen already refreshed above
                elif kind == "ready":
                    self._idle.append(worker)
                    self._pump()
                elif kind == "result":
                    state, worker.current = worker.current, None
                    if state is not None and worker in state.assignees:
                        state.assignees.remove(worker)
                    self._complete(
                        str(message.get("job_id")),
                        message.get("value"),
                        bool(message.get("cached")),
                        worker,
                    )
                elif kind == "error":
                    # A worker holds one job at a time, so whatever it
                    # currently holds is the failed one — requeue it even
                    # when the reported job_id is unusable (a worker that
                    # cannot *parse* its assignment reports "?"), or the
                    # job would sit outstanding forever and hang the run.
                    state, worker.current = worker.current, None
                    detail = str(message.get("error", "worker error"))
                    if state is not None:
                        self._job_failed(state, worker, detail)
                elif kind == "shutdown":
                    # Worker announcing a clean exit (drained --max-jobs,
                    # operator stop).  Acknowledge the drain before
                    # retiring so the worker can tear down its stream in
                    # order; an assignment that crossed the announcement
                    # requeues gracefully — no retry burned.
                    try:
                        await reply({"type": "shutdown"})
                    except (ConnectionError, OSError):
                        pass
                    self._retire(
                        worker, "clean shutdown", count_lost=False,
                        graceful=True,
                    )
                    worker = None
                    break
                else:
                    await reply({
                        "type": "error",
                        "error": f"unknown message type {kind!r}",
                    })
        except (ConnectionError, OSError):  # pragma: no cover - reset mid-read
            pass
        except asyncio.CancelledError:
            # Dispatcher shutdown reaps lingering connections; absorbing
            # the cancel keeps the stream protocol's done-callback from
            # logging it as an error during loop teardown.
            pass
        finally:
            if worker is not None:
                self._retire(worker, "disconnected")
            else:
                writer.close()
