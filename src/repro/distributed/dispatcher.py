"""The shard dispatcher: farm :class:`ShardJob`\\ s to a worker fleet.

Topology: the dispatcher listens on one TCP port; workers connect,
register and *pull* work (a worker announces ``ready``, the dispatcher
assigns at most one job per ready worker), so a slow worker never
accumulates a private backlog.  Results stream back inline and are
merged as they arrive; every computed result is also persisted twice —
by the worker to its store and by the dispatcher to its own (off-loop),
which warms the dispatcher's directory when the workers write to
another.  Double writes are harmless: one content address, identical
bytes.

Every scheduling decision — the FIFO job queue, retries, drains,
speculation, journal adoption, the exact streaming merge — is made by
the synchronous :class:`~repro.distributed.scheduler.Scheduler`.  This
module is its asyncio shell: it owns the TCP server, the
per-connection write locks, the off-loop store reads and writes, the
journal writes and replay, the heartbeat timer and the daemon thread
the event loop runs on, turns each wire message or timer tick into one
scheduler event, and runs the commands the event returns in order.
The failure model is tabled in ``docs/distributed.md`` ("Failure
semantics"); its contract — any worker killed, stalled or disconnected
mid-run, the merge stays byte-identical to a single-host run — is what
``tests/distributed/chaos.py`` enforces for every job kind.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.tracing import TraceContext, Tracer
from repro.distributed.jobs import ShardJob
from repro.distributed.journal import RunJournal
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    STREAM_LIMIT,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.distributed.scheduler import (
    DEFAULT_HEARTBEAT_INTERVAL, Assign, CloseWorker, Command, DispatchError,
    JournalDone, JournalJob, Persist, Run, RunFailed, Scheduler, WorkerState,
)
from repro.runtime.cache import ResultCache


class _Conn:
    """One registered worker's stream."""

    def __init__(self, writer: "asyncio.StreamWriter"):
        self.writer = writer
        # Serializes handler replies, assignment tasks and shutdown on
        # one stream: two coroutines awaiting the same drain() is an
        # asyncio flow-control assertion error.
        self.write_lock = asyncio.Lock()

    async def send(self, payload: Dict[str, Any]) -> None:
        async with self.write_lock:
            await send_message(self.writer, payload)


class ShardDispatcher:
    """Work-queue dispatcher for :class:`~repro.distributed.jobs.ShardJob`\\ s.

    ``host, port = dispatcher.start()`` serves on an event loop of its
    own daemon thread, ``dispatcher.dispatch(jobs, ...)`` blocks until
    the merge completes and ``dispatcher.close()`` tears down.  This is
    what lets the synchronous analysis API
    (:meth:`~repro.sram.montecarlo.MonteCarloAnalyzer.analyze_sharded`
    with ``dispatcher=``) farm work out without going async itself.

    Parameters
    ----------
    store:
        Shared :class:`~repro.runtime.cache.ResultCache`, consulted
        before queueing a job (resume support); ``None`` leaves store
        use to the workers.
    max_retries:
        Reassignment budget per job; the run fails once one job has
        been handed out ``max_retries + 1`` times without an answer.
    heartbeat_interval:
        Liveness cadence (finite, > 0); a worker silent for
        ``HEARTBEAT_TIMEOUT_FACTOR`` (4) intervals is presumed dead.
    speculate / speculation_threshold:
        A job held by one live worker for longer than the threshold is
        duplicated onto an idle worker (first answer wins).
        ``speculation_threshold`` fixes the cutoff in seconds (finite,
        > 0); ``None`` adapts it to observed compute latencies.
        Speculation never spends the retry budget.
    journal:
        Optional :class:`~repro.distributed.journal.RunJournal`: every
        job is journaled before it is queued and every merge-accepted
        completion after.  :meth:`start` replays it — completions still
        in the store are skipped, the rest re-enqueue, and a client
        resubmitting the same content *adopts* them.  See
        ``docs/recovery.md``.
    """

    def __init__(
        self,
        store: Optional[ResultCache] = None,
        max_retries: int = 3,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        speculate: bool = True,
        speculation_threshold: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[RunJournal] = None,
    ):
        self.scheduler = Scheduler(
            max_retries, heartbeat_interval, speculate, speculation_threshold, tracer
        )
        self.store = store
        self.journal = journal
        self.heartbeat_interval = self.scheduler.heartbeat_interval
        self.stats = self.scheduler.stats
        self.metrics = self.scheduler.metrics
        self.tracer = self.scheduler.tracer
        self.flight = self.scheduler.flight
        self.queue_snapshot = self.scheduler.queue_snapshot
        self._conns: Dict[WorkerState, _Conn] = {}
        self._futures: Dict[Run, "asyncio.Future[Any]"] = {}
        #: Set once journal replay (or its absence) has populated the
        #: queue; :meth:`_run` waits on it so resubmissions can adopt.
        self._replay_done: Optional[asyncio.Event] = None
        self._worker_event: Optional[asyncio.Event] = None
        self._monitor_task: Optional["asyncio.Task[None]"] = None
        self._conn_tasks: Set["asyncio.Task[Any]"] = set()
        self._bg_tasks: Set["asyncio.Task[Any]"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        # The daemon thread and its event loop.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- the event loop's side -------------------------------------------
    async def _serve(self, host: str, port: int) -> asyncio.AbstractServer:
        """Start the worker-facing TCP server (``port=0`` = ephemeral)."""
        self._worker_event = asyncio.Event()
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

    async def _run(
        self,
        jobs: Sequence[ShardJob],
        decode: Optional[Callable[[Any], Any]],
        merge: Optional[Callable[[Sequence[Any]], Any]],
        client: str,
        trace_parent: Optional[TraceContext],
    ) -> Any:
        """One :meth:`dispatch`, on the event loop."""
        assert self._replay_done is not None
        # Journal replay must populate the queue first, or a
        # resubmission racing it would double-queue recovered work.
        await self._replay_done.wait()
        run = Run(jobs, decode, merge, client, self.tracer.start_span(
            "dispatch.run", parent=trace_parent,
            attrs={"client": client, "jobs": len(jobs)},
        ))
        try:
            hits = [None] * len(jobs) if self.store is None else await self._store_get(jobs)
            future = self._futures[run] = asyncio.get_running_loop().create_future()
            self._execute(self.scheduler.submit(run, hits, self._now()))
            result = await future
            run.span.add_event("merged")
            run.span.end()
            return result
        except BaseException:
            run.span.end(status="error")
            raise
        finally:
            self._futures.pop(run, None)
            self.scheduler.cancel(run)

    async def _wait_for_workers(self, n: int, timeout: Optional[float]) -> None:
        assert self._worker_event is not None
        event: asyncio.Event = self._worker_event

        async def enough() -> None:
            while len(self.scheduler.workers) < n:
                event.clear()
                await event.wait()

        try:
            await asyncio.wait_for(enough(), timeout)
        except asyncio.TimeoutError:
            raise DispatchError(
                f"timed out waiting for {n} workers "
                f"({len(self.scheduler.workers)} connected)"
            ) from None

    async def _shutdown(self) -> None:
        """Stop serving: retire workers (with ``shutdown``) and close."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        for worker in tuple(self.scheduler.workers):
            conn = self._conns.get(worker)  # gone if it left during an await
            try:
                if conn is not None:
                    await conn.send({"type": "shutdown"})
            except (ConnectionError, OSError):
                pass
            self._execute(self.scheduler.lost(
                worker, "dispatcher shutdown", self._now(), count_lost=False
            ))
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

    # -- the caller's side (any thread) ---------------------------------
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
                server = self._loop.run_until_complete(self._serve(host, port))
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
                try:
                    self._loop.run_until_complete(self._shutdown())
                finally:
                    # Store writes run on the default executor, and
                    # cancelling their (shielded) task stops neither a
                    # running nor a queued one: wait for them, so every
                    # persisted result is in the store once close()
                    # returns.
                    self._loop.run_until_complete(
                        self._loop.shutdown_default_executor()
                    )
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
        trace_parent: Optional[TraceContext] = None,
    ) -> Any:
        """Execute ``jobs`` on the fleet; block until the (merged)
        results are in.

        With ``merge`` (and optional ``decode``) the jobs are treated
        as ordered shards and folded streaming into one value; without
        it, the decoded per-job values come back as a list in job
        order.  Raises :class:`DispatchError` when a job exhausts its
        retry budget — double-computation along the way is harmless
        (idempotent by cache address), a *lost* job is not.

        Thread-safe: any number of caller threads may dispatch
        concurrently.  Their jobs share one FIFO queue; ``client``
        labels the run's spans, flight events and per-client queue
        depth.  After ``timeout`` seconds the run is cancelled (its
        jobs leave the queue, late results are dropped) and
        ``concurrent.futures.TimeoutError`` is raised.
        """
        if self._loop is None:
            raise DispatchError("dispatcher is not started (call start())")
        if not jobs:
            raise DispatchError("cannot run an empty job list")
        coro = self._run(jobs, decode, merge, str(client), trace_parent)
        if timeout is not None:
            # Time out on the loop, so the run is purged before we return.
            coro = asyncio.wait_for(coro, timeout)
        try:
            return asyncio.run_coroutine_threadsafe(coro, self._loop).result()
        except asyncio.TimeoutError:
            if timeout is None:
                raise
            raise concurrent.futures.TimeoutError(
                f"dispatch did not finish within {timeout}s"
            ) from None

    def await_workers(self, n: int, timeout: Optional[float] = None) -> None:
        """Block until ``n`` workers are registered (for scripted runs)."""
        if self._loop is None:
            raise DispatchError("dispatcher is not started (call start())")
        asyncio.run_coroutine_threadsafe(
            self._wait_for_workers(n, timeout), self._loop
        ).result()

    def close(self) -> None:
        """Retire the workers and stop serving (idempotent).  Returns
        once the dispatcher's own store writes have landed."""
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

    # -- commands and I/O (event-loop thread only) ----------------------
    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    def _execute(self, commands: List[Command]) -> None:
        """Run the scheduler's commands in order.  Journal writes happen
        right here, before any later command: the write-ahead order."""
        for command in commands:
            if isinstance(command, Assign):
                conn = self._conns.get(command.worker)
                if conn is not None:
                    self._spawn(self._send_assign(command.worker, conn, command.message))
            elif isinstance(command, Persist):
                if self.store is not None:
                    self._spawn(self._persist(command.job, command.value))
            elif isinstance(command, JournalJob):
                if self.journal is not None:
                    self.journal.record_job(command.job)
            elif isinstance(command, JournalDone):
                if self.journal is not None:
                    self.journal.record_done(command.job)
            elif isinstance(command, CloseWorker):
                conn = self._conns.pop(command.worker, None)
                if conn is not None:
                    conn.writer.close()
            else:
                future = self._futures.pop(command.run, None)
                if future is None or future.done():
                    continue  # a recovery run, or its caller is gone
                if isinstance(command, RunFailed):
                    future.set_exception(command.error)
                else:
                    future.set_result(command.value)

    async def _send_assign(
        self, worker: WorkerState, conn: _Conn, message: Dict[str, Any]
    ) -> None:
        try:
            await conn.send(message)
        except (ConnectionError, OSError):
            self._execute(self.scheduler.lost(
                worker, "connection lost during assignment", self._now()
            ))

    async def _store_get(self, jobs: Sequence[ShardJob]) -> List[Any]:
        """Store lookups off-loop (an NFS stall must not freeze
        heartbeat monitoring) and concurrent (N serial round-trips would
        delay the first assignment of a resumed run)."""
        assert self.store is not None
        loop, store = asyncio.get_running_loop(), self.store
        return list(await asyncio.gather(*(
            loop.run_in_executor(None, store.get, job.namespace, job.payload)
            for job in jobs
        )))

    async def _persist(self, job: ShardJob, value: Any) -> None:
        """Store one computed result off-loop (failures degrade caching
        only — the value already travelled inline)."""
        assert self.store is not None
        try:
            # Shielded: cancelling this task at shutdown must not cancel
            # a write still queued on the executor, which shutdown then
            # waits for.
            await asyncio.shield(asyncio.get_running_loop().run_in_executor(
                None, self.store.put, job.namespace, job.payload, value
            ))
        except Exception:
            pass

    async def _replay_journal(self) -> None:
        """Replay the journal on startup: skip completions still in the
        store, re-enqueue the unfinished remainder as a recovery run.
        Never fails serving — a corrupt journal degrades to an empty
        replay with a ``journal_error`` flight event."""
        journal = self.journal
        assert journal is not None and self._replay_done is not None
        try:
            replay = await asyncio.get_running_loop().run_in_executor(
                None, journal.replay
            )
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
            # A completion only skips recomputation while its result is
            # still in the store (``--ttl 0`` or eviction demotes it);
            # with no store, the completion records stand as they are.
            present = (
                [True] * len(replay.done) if self.store is None
                else [hit is not None for hit in await self._store_get(replay.done)]
            )
            missing = [job for job, ok in zip(replay.done, present) if not ok]
            self._execute(self.scheduler.recover(
                list(replay.pending) + missing, sum(present), self._now()
            ))
        except Exception as exc:
            # Recovery is best-effort on top of a healthy dispatcher.
            self.flight.record("journal_error", error=str(exc))
        finally:
            self._replay_done.set()

    async def _monitor(self) -> None:
        """Heartbeat timer: one scheduler tick per interval."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            self._execute(self.scheduler.tick(self._now()))

    # -- connection handling --------------------------------------------
    async def _serve_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        worker: Optional[WorkerState] = None
        conn: Optional[_Conn] = None
        scheduler = self.scheduler

        async def reply(payload: Dict[str, Any]) -> None:
            # Registered workers also receive assignment tasks on this
            # stream; their lock serializes the two writers.
            if conn is not None:
                await conn.send(payload)
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
                now = self._now()
                if worker is not None:
                    scheduler.heartbeat(worker, now)

                if kind == "stats":
                    stats_doc = scheduler.snapshot()
                    if self.store is not None:
                        stats_doc["store"] = self.store.stats_payload()
                    await reply({"type": "stats", "ok": True, "stats": stats_doc})
                elif kind == "flight":
                    await reply({
                        "type": "flight", "ok": True,
                        "events": self.flight.snapshot(),
                        "recorded": self.flight.recorded,
                    })
                elif kind == "register":
                    if message.get("protocol") != PROTOCOL_VERSION:
                        await reply({"type": "error", "error": (
                            f"protocol mismatch: dispatcher speaks "
                            f"{PROTOCOL_VERSION}, worker sent {message.get('protocol')!r}"
                        )})
                        break
                    name = str(message.get("name") or f"worker-{id(writer):x}")
                    worker = scheduler.worker_joined(name, now)
                    conn = self._conns[worker] = _Conn(writer)
                    assert self._worker_event is not None
                    self._worker_event.set()
                    await conn.send({
                        "type": "welcome",
                        "heartbeat_interval": self.heartbeat_interval,
                        "store": None if self.store is None else self.store.describe(),
                    })
                elif worker is None:
                    await reply({"type": "error", "error": f"{kind!r} before 'register'"})
                elif kind == "heartbeat":
                    pass  # the scheduler heard from it above
                elif kind == "ready":
                    self._execute(scheduler.ready(worker, now))
                elif kind == "result":
                    self._execute(scheduler.result(
                        worker, str(message.get("job_id")), message.get("value"),
                        bool(message.get("cached")), now,
                    ))
                elif kind == "error":
                    self._execute(scheduler.error(
                        worker, str(message.get("error", "worker error")), now
                    ))
                elif kind == "shutdown":
                    # A clean exit (drained --max-jobs, operator stop):
                    # acknowledge before retiring so the worker can tear
                    # down its stream in order; an assignment that
                    # crossed the announcement requeues, no retry spent.
                    try:
                        await reply({"type": "shutdown"})
                    except (ConnectionError, OSError):
                        pass
                    self._execute(scheduler.lost(
                        worker, "clean shutdown", self._now(),
                        count_lost=False, graceful=True,
                    ))
                    worker = None
                    break
                else:
                    await reply({"type": "error", "error": f"unknown message type {kind!r}"})
        except (ConnectionError, OSError):  # pragma: no cover - reset mid-read
            pass
        except asyncio.CancelledError:
            # Dispatcher shutdown reaps lingering connections; absorbing
            # the cancel keeps the stream protocol's done-callback from
            # logging it as an error during loop teardown.
            pass
        finally:
            if worker is not None:
                self._execute(scheduler.lost(worker, "disconnected", self._now()))
            else:
                writer.close()
