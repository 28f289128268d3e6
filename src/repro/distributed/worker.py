"""The worker process: execute dispatched shards next to a shared store.

A worker connects to one dispatcher, registers, and pulls jobs one at a
time (``ready`` → ``assign`` → ``result`` → ``ready``).  Execution
happens *off* the event loop on a thread-pool worker, so heartbeats
keep flowing while a shard computes — the dispatcher can tell a
crunching worker from a dead one.  Every result is written to the
worker's :class:`~repro.runtime.cache.ResultCache` before it is
reported, and a populated store address short-circuits the computation
entirely (see :func:`~repro.distributed.jobs.execute_job`).

Job failures are reported per job (``error`` messages) and do not kill
the worker; protocol-level failures (malformed dispatcher, version
skew) do, because a worker that misunderstands its dispatcher must not
keep computing.  A *gone* dispatcher is a third category: by default it
ends the worker cleanly, but with ``reconnect=True`` (the CLI's
``--reconnect``) the worker instead re-dials with exponential backoff
and jitter, re-registers through the normal welcome handshake, and
keeps serving — which is what lets a fleet outlive a dispatcher restart
(see ``docs/recovery.md``).
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.obs.tracing import TraceContext, Tracer, get_tracer
from repro.distributed.jobs import ShardJob, execute_job
from repro.distributed.protocol import (
    DRAIN_ACK_TIMEOUT,
    PROTOCOL_VERSION,
    STREAM_LIMIT,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.runtime.cache import ResultCache

#: Base reconnect delay (seconds); doubles per consecutive failure.
DEFAULT_RECONNECT_BACKOFF = 0.5

#: Consecutive failed reconnect attempts before the worker gives up.
DEFAULT_RECONNECT_ATTEMPTS = 10

#: Ceiling on the exponential backoff delay (before jitter).
RECONNECT_BACKOFF_CAP = 30.0


def default_worker_name() -> str:
    """``host-pid``: unique per process, stable for a worker's lifetime."""
    return f"{socket.gethostname()}-{os.getpid()}"


def worker_command(
    host: str,
    port: int,
    *,
    name: Optional[str] = None,
    cache_dir: Optional[str] = None,
    reconnect: bool = False,
) -> List[str]:
    """The argv that runs ``repro-sram worker`` with this interpreter.

    Every fleet spawner (the smoke scripts and the distributed
    benchmarks) builds its worker processes from here, so the flags
    stay in step with :func:`run_worker`.  ``None`` omits a flag.
    """
    cmd = [sys.executable, "-m", "repro.cli", "worker", "--connect", f"{host}:{port}"]
    for flag, value in (
        ("--name", name),
        ("--cache-dir", cache_dir),
    ):
        if value is not None:
            cmd += [flag, str(value)]
    if reconnect:
        cmd.append("--reconnect")
    return cmd


class Worker:
    """One dispatcher connection's worth of shard execution.

    Parameters
    ----------
    host / port:
        The dispatcher to connect to.
    store:
        Shared result store; results are persisted here before they are
        reported, and present entries skip computation.
    name:
        Registration name (shows up in dispatcher stats);
        defaults to :func:`default_worker_name`.
    max_jobs:
        Exit cleanly after this many jobs (drain hook for rolling
        restarts and tests; at least 1); ``None`` serves until the
        dispatcher goes away.
    ack_timeout:
        Seconds to wait for the dispatcher's drain acknowledgement
        (defaults to the shared protocol constant
        :data:`~repro.distributed.protocol.DRAIN_ACK_TIMEOUT`).
    reconnect / reconnect_backoff / reconnect_max_attempts:
        With ``reconnect=True`` a lost dispatcher (EOF, reset, refused
        dial) triggers a re-dial loop — exponential backoff from
        ``reconnect_backoff`` seconds (doubling, capped at
        :data:`RECONNECT_BACKOFF_CAP`, ±50% jitter) for up to
        ``reconnect_max_attempts`` consecutive failures, after which
        :class:`ConnectionError` is raised.  The attempt budget resets
        whenever a session actually registers, so a fleet riding out
        repeated dispatcher restarts never exhausts it.  Explicit
        ``shutdown`` messages and ``--max-jobs`` drains still exit;
        protocol errors stay fatal (a worker must not re-dial a
        dispatcher it cannot understand).
    """

    def __init__(
        self,
        host: str,
        port: int,
        store: Optional[ResultCache] = None,
        name: Optional[str] = None,
        max_jobs: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        ack_timeout: float = DRAIN_ACK_TIMEOUT,
        reconnect: bool = False,
        reconnect_backoff: float = DEFAULT_RECONNECT_BACKOFF,
        reconnect_max_attempts: int = DEFAULT_RECONNECT_ATTEMPTS,
    ):
        if max_jobs is not None and max_jobs < 1:
            raise ConfigurationError(f"max_jobs must be >= 1, got {max_jobs}")
        self.host = host
        self.port = int(port)
        self.store = store
        self.name = name or default_worker_name()
        self.max_jobs = max_jobs
        self.tracer = tracer if tracer is not None else get_tracer()
        self.ack_timeout = float(ack_timeout)
        self.reconnect = bool(reconnect)
        self.reconnect_backoff = float(reconnect_backoff)
        self.reconnect_max_attempts = int(reconnect_max_attempts)
        self.jobs_done = 0
        #: Successful re-registrations after a lost dispatcher.
        self.reconnects = 0
        self._sessions = 0
        # Serializes the heartbeat task and job-result reports on the
        # one dispatcher stream: two coroutines awaiting the same
        # drain() is an asyncio flow-control assertion error.
        self._write_lock: Optional[asyncio.Lock] = None
        # Jobs run one at a time, on one thread for the life of run():
        # the loop's default executor starts another thread whenever a
        # job is submitted before the last one's thread went idle, and
        # each thread's malloc arena keeps its own freed memory.
        self._job_thread: Optional[ThreadPoolExecutor] = None

    async def _send(
        self, writer: "asyncio.StreamWriter", payload: Dict[str, Any]
    ) -> None:
        assert self._write_lock is not None
        async with self._write_lock:
            await send_message(writer, payload)

    async def run(self) -> int:
        """Serve until shutdown/disconnect; returns jobs executed.

        Without ``reconnect`` a gone dispatcher ends the worker — a
        failed initial dial propagates, a loss after registration is a
        clean exit (served until the dispatcher stopped).  With
        ``reconnect`` both become a jittered-backoff re-dial loop; only
        an explicit ``shutdown``, a ``--max-jobs`` drain, an exhausted
        attempt budget or a protocol error ends the worker.
        """
        self._job_thread = ThreadPoolExecutor(max_workers=1)
        try:
            return await self._serve()
        finally:
            # Never block the loop: a job still running after a
            # cancellation finishes on its thread.
            self._job_thread.shutdown(wait=False)

    async def _serve(self) -> int:
        attempts = 0
        while True:
            sessions_before = self._sessions
            try:
                outcome = await self._session()
            except (ConnectionError, OSError):
                if not self.reconnect:
                    raise
                outcome = "lost"
            if outcome != "lost":
                return self.jobs_done  # explicit shutdown or drain
            if not self.reconnect:
                return self.jobs_done
            if self._sessions > sessions_before:
                # The lost session had registered: this is a *fresh*
                # outage, not attempt N of the previous one — a fleet
                # riding out rolling restarts must never exhaust its
                # budget across separate outages.
                attempts = 0
            attempts += 1
            if attempts > self.reconnect_max_attempts:
                raise ConnectionError(
                    f"dispatcher {self.host}:{self.port} unreachable "
                    f"after {attempts - 1} reconnect attempts"
                )
            delay = min(
                RECONNECT_BACKOFF_CAP,
                self.reconnect_backoff * (2 ** min(attempts - 1, 16)),
            ) * (0.5 + random.random())
            await asyncio.sleep(delay)

    async def _session(self) -> str:
        """One dispatcher connection, dial to teardown.

        Returns ``"shutdown"`` (dispatcher said stop), ``"drained"``
        (``--max-jobs`` reached) or ``"lost"`` (EOF / reset after
        registration).  A failed dial or a registration-phase loss
        propagates; :meth:`run` decides whether that is fatal.
        """
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=STREAM_LIMIT
        )
        self._write_lock = asyncio.Lock()
        heartbeat_task: Optional["asyncio.Task[None]"] = None
        try:
            await self._send(writer, {
                "type": "register",
                "name": self.name,
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            })
            welcome = await recv_message(reader)
            if welcome is None or welcome.get("type") != "welcome":
                detail = "" if welcome is None else welcome.get("error", welcome)
                raise ProtocolError(f"dispatcher rejected registration: {detail}")
            raw_interval = welcome.get("heartbeat_interval", 1.0)
            if (
                not isinstance(raw_interval, (int, float))
                or isinstance(raw_interval, bool)
                or raw_interval <= 0
            ):
                # A zero/negative interval would busy-loop the heartbeat
                # task; a dispatcher announcing one is misconfigured and
                # must not be served.
                raise ProtocolError(
                    f"welcome heartbeat_interval must be a positive "
                    f"number, got {raw_interval!r}"
                )
            interval = float(raw_interval)
            self._sessions += 1
            if self._sessions > 1:
                self.reconnects += 1
            heartbeat_task = asyncio.create_task(
                self._heartbeats(writer, interval)
            )
            await self._send(writer, {"type": "ready"})
            loop = asyncio.get_running_loop()
            try:
                while True:
                    message = await recv_message(reader)
                    # recv_message validates the envelope, but the guard
                    # stays .get()-based: a malformed dispatcher must
                    # surface as ProtocolError, never a bare KeyError.
                    if message is None:
                        return "lost"
                    kind = message.get("type")
                    if kind == "shutdown":
                        return "shutdown"
                    if kind == "assign":
                        await self._execute(loop, writer, message)
                        self.jobs_done += 1
                        if (
                            self.max_jobs is not None
                            and self.jobs_done >= self.max_jobs
                        ):
                            await self._send(writer, {"type": "shutdown"})
                            await self._await_drain_ack(reader)
                            return "drained"
                        await self._send(writer, {"type": "ready"})
                    elif kind == "error":
                        raise ProtocolError(
                            f"dispatcher error: {message.get('error')}"
                        )
                    # Anything else (future additions) is ignored.
            except (ConnectionError, OSError):
                # The dispatcher went away mid-exchange — e.g. it shut
                # down while this worker was still computing a job whose
                # speculation race it had already lost, so the result
                # send hit a closed stream.  Same meaning as reading
                # EOF: served until the dispatcher stopped.
                return "lost"
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    async def _await_drain_ack(self, reader: "asyncio.StreamReader") -> None:
        """Wait for the dispatcher to acknowledge a drain ``shutdown``.

        An ``assign`` may cross our shutdown announcement on the wire;
        closing immediately would tear the stream down underneath it.
        Reading until the dispatcher's ``shutdown`` ack (or EOF) keeps
        the teardown orderly — the dispatcher requeues any crossed
        assignment when it processes the announcement, so nothing read
        here needs executing.
        """
        try:
            while True:
                ack = await asyncio.wait_for(
                    recv_message(reader), timeout=self.ack_timeout
                )
                if ack is None or ack.get("type") == "shutdown":
                    return
        except (asyncio.TimeoutError, ProtocolError,
                ConnectionError, OSError):
            return  # a silent or garbled peer cannot block the drain

    async def _execute(
        self,
        loop: asyncio.AbstractEventLoop,
        writer: "asyncio.StreamWriter",
        message: Dict[str, Any],
    ) -> None:
        """Run one assignment off-loop and report result or error."""
        wire = dict(message.get("job") or {})
        # Even an unparseable assignment should echo the claimed id so
        # the dispatcher can match the failure to its job.
        job_id = str(wire.get("job_id", "?"))
        # The dispatcher's assignment span rides along as an additive
        # wire field; a worker-side span parented to it stitches both
        # processes into one trace.
        parent = TraceContext.from_wire(message.get("trace"))
        span = self.tracer.start_span(
            "worker.execute",
            parent=parent,
            attrs={"job_id": job_id, "worker": self.name},
        )
        try:
            job = ShardJob.from_wire(wire)
            job_id = job.job_id
            span.set_attr("job_id", job_id)
            value, cached = await loop.run_in_executor(
                self._job_thread, execute_job, job, self.store
            )
        except asyncio.CancelledError:
            span.end(status="cancelled")
            raise
        except ReproError as exc:
            span.end(status="error")
            await self._send(writer, {
                "type": "error", "job_id": job_id, "error": str(exc),
            })
        except Exception as exc:
            # A programming error behind one shard is that job's
            # failure, not the worker's: report and keep serving.
            span.end(status="error")
            await self._send(writer, {
                "type": "error", "job_id": job_id,
                "error": f"internal error ({type(exc).__name__}): {exc}",
            })
        else:
            span.set_attr("cached", cached)
            span.end()
            await self._send(writer, {
                "type": "result", "job_id": job_id,
                "value": value, "cached": cached,
            })

    async def _heartbeats(
        self, writer: "asyncio.StreamWriter", interval: float
    ) -> None:
        """Beat until cancelled; a gone dispatcher ends the task quietly."""
        try:
            while True:
                await asyncio.sleep(interval)
                await self._send(writer, {"type": "heartbeat"})
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass


def run_worker(
    host: str,
    port: int,
    cache_dir: Optional[str] = None,
    name: Optional[str] = None,
    max_jobs: Optional[int] = None,
    ttl: Optional[float] = None,
    metrics_port: Optional[int] = None,
    ack_timeout: float = DRAIN_ACK_TIMEOUT,
    reconnect: bool = False,
    reconnect_backoff: float = DEFAULT_RECONNECT_BACKOFF,
    reconnect_max_attempts: int = DEFAULT_RECONNECT_ATTEMPTS,
) -> int:
    """Blocking worker entry point (the ``repro-sram worker`` command).

    The worker's store is a :class:`~repro.runtime.cache.ResultCache`
    over ``cache_dir``; ``ttl`` (the CLI's ``--ttl``) makes entries at
    least that many seconds old read as misses.

    Returns a process exit code: 0 after a clean shutdown/drain, 1 when
    the connection or registration failed — with ``reconnect`` that
    last case only happens once ``reconnect_max_attempts`` consecutive
    re-dials have failed (the CLI's ``--reconnect`` /
    ``--reconnect-backoff`` / ``--reconnect-max``).
    """
    store = ResultCache(cache_dir, ttl=ttl)
    worker = Worker(
        host, port,
        store=store,
        name=name,
        max_jobs=max_jobs,
        ack_timeout=ack_timeout,
        reconnect=reconnect,
        reconnect_backoff=reconnect_backoff,
        reconnect_max_attempts=reconnect_max_attempts,
    )
    metrics_server = None
    if metrics_port is not None:
        from repro.obs import MetricsServer, bind_store_metrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        bind_store_metrics(registry, store, component="worker")
        metrics_server = MetricsServer(registry, port=metrics_port).start()
        print(f"worker {worker.name}: metrics on {metrics_server.url}")
    try:
        done = asyncio.run(worker.run())
    except (ConnectionError, OSError, ProtocolError) as exc:
        print(f"worker {worker.name}: {exc}")
        return 1
    finally:
        if metrics_server is not None:
            metrics_server.stop()
    print(f"worker {worker.name}: served {done} job(s)")
    return 0
