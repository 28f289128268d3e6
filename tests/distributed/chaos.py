"""Deterministic chaos harness for the distributed dispatcher.

The acceptance contract of the whole subsystem is *exactness under
failure*: a job list dispatched to a fleet where workers die, stall,
corrupt their streams or drop their connections mid-run must merge
byte-identically to a single-process oracle.  This module provides the
machinery the property suites (``test_chaos.py``) drive:

* :class:`ChaosEvent` / :class:`ChaosSchedule` — a declarative,
  JSON-able failure plan: *worker i misbehaves with action A after
  completing N jobs*.  The schedule is deterministic **per worker**;
  which jobs land on which worker is a genuine race, which is the
  point — the asserted property (oracle equality) must hold for every
  interleaving, so the tests never pin one.
* :class:`ChaosWorker` — a scripted JSON-lines peer that executes
  *real* jobs (via :func:`~repro.distributed.jobs.execute_job`, off its
  event loop so heartbeats flow while computing) until its scheduled
  event fires.
* :func:`run_chaos_fleet` — spin a dispatcher plus a scheduled fleet
  (always including one well-behaved *anchor* worker, so progress is
  guaranteed), dispatch the jobs, and return the merged result with
  the dispatcher's stats.  With ``CHAOS_ARTIFACT_DIR`` set, every run
  drops a JSON artifact pairing the schedule with the digest of the
  merged output — the CI chaos drill uploads these, so a red run ships
  its own reproduction recipe.

Chaos actions
-------------
``kill``
    Stop heartbeating with the connection held open (a SIGKILL as the
    dispatcher observes it); the heartbeat watchdog retires the worker
    and requeues its job.
``stall``
    Keep heartbeating but sit on the assignment for
    ``stall_seconds`` before reporting the (correct) result — the
    straggler scenario speculation exists for.  The worker stays in
    the fleet afterwards.
``corrupt``
    Send a non-JSON line instead of the result.  The dispatcher cannot
    resynchronize a corrupted line stream, so it drops the connection
    and requeues the held job.  (Corrupting the *value* is out of
    scope by design: workers are trusted to be correct, and the
    store's content addressing dedupes — it does not checksum.)
``disconnect``
    Drop the TCP connection mid-job.

Every action reduces to the same recovery path — recompute is free,
results are content-addressed and bit-identical — which is exactly
what the property tests verify.

Scale events
------------
Beyond misbehaviour, a schedule can carry :class:`ChaosScaleEvent`
entries — *when the fleet has completed N jobs, spawn K fresh workers /
drain K live ones* — a fleet growing and shrinking mid-run.  Spawned
workers are well-behaved (optionally with a ``max_jobs`` drain
budget); drained workers go through the worker's own graceful path
(``shutdown`` + dispatcher acknowledgment), so an in-flight assignment
requeues without burning a retry.  The asserted property is unchanged:
the merged bytes must equal the oracle no matter how the pool breathes.
"""

import asyncio
import dataclasses
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.distributed import ShardDispatcher
from repro.distributed.jobs import ShardJob, execute_job
from repro.distributed.protocol import PROTOCOL_VERSION, STREAM_LIMIT
from repro.runtime import ResultCache

from tests.distributed.conftest import HEARTBEAT_INTERVAL

#: The vocabulary of scheduled misbehaviour (see module docstring).
CHAOS_ACTIONS = ("kill", "stall", "corrupt", "disconnect")


@dataclass(frozen=True)
class ChaosEvent:
    """Worker ``worker`` performs ``action`` after ``after_jobs`` clean
    completions (i.e. on its ``after_jobs + 1``-th assignment)."""

    worker: int
    after_jobs: int
    action: str

    def __post_init__(self):
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}")
        if self.worker < 0 or self.after_jobs < 0:
            raise ValueError("worker and after_jobs must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {"worker": self.worker, "after_jobs": self.after_jobs,
                "action": self.action}


@dataclass(frozen=True)
class ChaosScaleEvent:
    """When the fleet has completed ``at_completed`` jobs, ``spawn``
    ``workers`` fresh well-behaved workers (each with an optional
    ``max_jobs`` drain budget) or gracefully ``drain`` ``workers`` live
    non-anchor workers."""

    at_completed: int
    action: str
    workers: int = 1
    max_jobs: Optional[int] = None

    def __post_init__(self):
        if self.action not in ("spawn", "drain"):
            raise ValueError(f"unknown scale action {self.action!r}")
        if self.at_completed < 0 or self.workers < 1:
            raise ValueError("at_completed must be >= 0 and workers >= 1")
        if self.max_jobs is not None and (
            self.action != "spawn" or self.max_jobs < 1
        ):
            raise ValueError("max_jobs needs action='spawn' and a count >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {"at_completed": self.at_completed, "action": self.action,
                "workers": self.workers, "max_jobs": self.max_jobs}


@dataclass(frozen=True)
class ChaosSchedule:
    """A full failure plan: at most one event per worker index."""

    events: Tuple[ChaosEvent, ...]
    stall_seconds: float = 1.0
    scale_events: Tuple[ChaosScaleEvent, ...] = ()

    def __post_init__(self):
        workers = [event.worker for event in self.events]
        if len(set(workers)) != len(workers):
            raise ValueError("at most one chaos event per worker")

    def event_for(self, worker: int) -> Optional[ChaosEvent]:
        for event in self.events:
            if event.worker == worker:
                return event
        return None

    @property
    def n_workers(self) -> int:
        """Smallest fleet that realizes every scheduled event."""
        return 1 + max((event.worker for event in self.events), default=-1)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [event.to_dict() for event in self.events],
            "stall_seconds": self.stall_seconds,
            "scale_events": [event.to_dict() for event in self.scale_events],
        }

    def describe(self) -> str:
        parts = [
            f"w{event.worker}:{event.action}@{event.after_jobs}"
            for event in self.events
        ] + [
            f"fleet:{event.action}x{event.workers}@{event.at_completed}"
            for event in self.scale_events
        ]
        return ", ".join(parts) if parts else "no chaos"


class ChaosWorker:
    """A real-computation worker that misbehaves exactly once, on cue.

    Speaks the genuine wire protocol over localhost TCP and executes
    assignments with :func:`execute_job` on a thread-pool executor (so
    heartbeats flow during computation, like the production worker).
    With ``event=None`` it is a well-behaved fleet member — the anchor.
    """

    def __init__(self, host, port, store_dir=None, name="chaos",
                 event=None, stall_seconds=1.0, max_jobs=None):
        self.host, self.port = host, port
        self.store = None if store_dir is None else ResultCache(store_dir)
        self.name = name
        self.event = event
        self.stall_seconds = stall_seconds
        self.max_jobs = max_jobs
        self.completed = 0
        self.acted = False
        self.drained = False
        self._drain = threading.Event()
        self._done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    @property
    def running(self) -> bool:
        """Still serving: neither finished nor asked to drain."""
        return not self._done.is_set() and not self._drain.is_set()

    def request_drain(self):
        """Ask the worker to drain gracefully before its next job."""
        self._drain.set()

    def _run(self):
        try:
            asyncio.run(self._script())
        except (ConnectionError, OSError):
            pass  # dispatcher tore the stream down first; expected
        finally:
            self._done.set()

    async def _script(self):
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=STREAM_LIMIT
        )
        lock = asyncio.Lock()

        async def send(payload):
            async with lock:
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()

        async def recv():
            raw = await reader.readline()
            return json.loads(raw) if raw.strip() else None

        async def heartbeats(interval):
            try:
                while True:
                    await asyncio.sleep(interval)
                    await send({"type": "heartbeat"})
            except (ConnectionError, OSError):
                pass

        beat = None
        loop = asyncio.get_running_loop()
        try:
            await send({"type": "register", "name": self.name,
                        "pid": 0, "protocol": PROTOCOL_VERSION})
            welcome = await recv()
            assert welcome and welcome["type"] == "welcome", welcome
            interval = float(welcome.get("heartbeat_interval", 1.0))
            beat = asyncio.create_task(heartbeats(interval))
            while True:
                over_budget = (
                    self.max_jobs is not None
                    and self.completed >= self.max_jobs
                )
                if over_budget or self._drain.is_set():
                    # The worker's graceful drain: announce shutdown and
                    # wait for the dispatcher's acknowledgment so a
                    # crossed assignment requeues (free of charge)
                    # before the stream drops.
                    await send({"type": "shutdown"})
                    try:
                        while True:
                            ack = await asyncio.wait_for(recv(), timeout=10)
                            if ack is None or ack.get("type") == "shutdown":
                                break
                    except asyncio.TimeoutError:
                        pass
                    self.drained = True
                    return
                await send({"type": "ready"})
                message = await recv()
                if message is None or message["type"] != "assign":
                    return
                job = ShardJob.from_wire(message["job"])
                due = (
                    self.event is not None and not self.acted
                    and self.completed >= self.event.after_jobs
                )
                if due:
                    self.acted = True
                    action = self.event.action
                    if action == "kill":
                        # Silence: stop beating, hold the connection,
                        # wait for the watchdog to hang up on us.
                        beat.cancel()
                        await asyncio.wait_for(reader.read(), timeout=30)
                        return
                    if action == "disconnect":
                        return  # finally: closes the transport abruptly
                    if action == "corrupt":
                        async with lock:
                            writer.write(b"\x00garbage{{{ not json\n")
                            await writer.drain()
                        return
                    # "stall": straggle (heartbeats keep flowing), then
                    # report the correct result late and keep serving.
                    await asyncio.sleep(self.stall_seconds)
                value, cached = await loop.run_in_executor(
                    None, execute_job, job, self.store
                )
                await send({"type": "result", "job_id": job.job_id,
                            "value": value, "cached": cached})
                self.completed += 1
        finally:
            if beat is not None:
                beat.cancel()
            writer.close()

    def join(self, timeout=60):
        assert self._done.wait(timeout), (
            f"chaos worker {self.name!r} did not finish"
        )


@dataclass
class ChaosRun:
    """Everything one :func:`run_chaos_fleet` invocation produced."""

    result: Any
    stats: Any  # DispatcherStats
    schedule: ChaosSchedule
    digest: str
    artifact_path: Optional[str] = None
    workers: List[ChaosWorker] = field(default_factory=list)
    #: Wall time of the dispatch alone (fleet spin-up and worker joins
    #: excluded) — what the speculation benchmark compares.
    elapsed_s: float = 0.0
    #: One line per realized scale event ("spawn scale-0" / "drain ...").
    scale_log: List[str] = field(default_factory=list)


def digest_of(value: Any) -> str:
    """SHA-256 of the canonical JSON form — the byte-identity oracle.

    Objects with ``to_dict`` serialize through it, so merged tallies
    and decoded results digest the same way their wire forms do;
    ``to_payload`` (characterization tables) and plain dataclasses
    (``CellTables``) are handled too, so whole DAG result dicts digest
    directly.
    """

    def canonical(obj: Any) -> Any:
        if hasattr(obj, "to_dict"):
            return canonical(obj.to_dict())
        if hasattr(obj, "to_payload"):
            return canonical(obj.to_payload())
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            }
        if isinstance(obj, dict):
            return {str(k): canonical(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [canonical(v) for v in obj]
        return obj

    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record_artifact(
    schedule: ChaosSchedule, jobs: Sequence[ShardJob], digest: str, stats: Any
) -> Optional[str]:
    """Drop one run's reproduction recipe under ``CHAOS_ARTIFACT_DIR``.

    No-op (returns ``None``) when the variable is unset — local runs
    stay clean; the CI chaos drill sets it and uploads the directory.
    """
    art_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not art_dir:
        return None
    os.makedirs(art_dir, exist_ok=True)
    doc = {
        "schedule": schedule.to_dict(),
        "jobs": [{"job_id": job.job_id, "kind": job.kind} for job in jobs],
        "merged_digest": digest,
        "stats": stats.to_dict(),
    }
    tag = hashlib.sha256(
        json.dumps(doc["schedule"], sort_keys=True).encode()
        + digest.encode()
    ).hexdigest()[:12]
    path = os.path.join(art_dir, f"chaos-{jobs[0].kind}-{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    return path


def _drive_chaos_fleet(
    schedule: ChaosSchedule,
    store_dir: Optional[str],
    workload: Callable[[ShardDispatcher], Any],
    dispatcher_kwargs: Dict[str, Any],
) -> ChaosRun:
    """Run ``workload(dispatcher)`` on a fleet realizing ``schedule``.

    The fleet is one :class:`ChaosWorker` per scheduled worker index
    plus one anchor (no event); scale events fire as the fleet's
    completed count grows.  The result is not digested here.
    """
    dispatcher_kwargs.setdefault("heartbeat_interval", HEARTBEAT_INTERVAL)
    dispatcher_kwargs.setdefault("max_retries", len(schedule.events) + 1)
    dispatcher_kwargs.setdefault(
        "speculation_threshold", max(schedule.stall_seconds / 2, 0.05)
    )
    store = None if store_dir is None else ResultCache(store_dir)
    workers: List[ChaosWorker] = []
    scale_log: List[str] = []
    stop_driver = threading.Event()
    with ShardDispatcher(store=store, **dispatcher_kwargs) as dispatcher:
        host, port = dispatcher.start()
        for index in range(schedule.n_workers):
            workers.append(ChaosWorker(
                host, port, store_dir, name=f"chaos-{index}",
                event=schedule.event_for(index),
                stall_seconds=schedule.stall_seconds,
            ))
        workers.append(ChaosWorker(host, port, store_dir, name="anchor"))
        dispatcher.await_workers(len(workers), timeout=30)

        def scale_driver():
            """Fire scale events as the fleet's completed count grows."""
            pending = sorted(
                schedule.scale_events, key=lambda e: e.at_completed
            )
            spawned = 0
            while pending and not stop_driver.is_set():
                done = dispatcher.stats.completed
                while pending and done >= pending[0].at_completed:
                    event = pending.pop(0)
                    if event.action == "spawn":
                        for _ in range(event.workers):
                            name = f"scale-{spawned}"
                            spawned += 1
                            workers.append(ChaosWorker(
                                host, port, store_dir, name=name,
                                max_jobs=event.max_jobs,
                            ))
                            scale_log.append(f"spawn {name}@{done}")
                    else:  # drain the youngest live non-anchor workers
                        live = [w for w in workers
                                if w.name != "anchor" and w.running]
                        for worker in live[-event.workers:]:
                            worker.request_drain()
                            scale_log.append(f"drain {worker.name}@{done}")
                time.sleep(0.02)

        driver = threading.Thread(target=scale_driver, daemon=True)
        driver.start()
        start = time.perf_counter()
        result = workload(dispatcher)
        elapsed = time.perf_counter() - start
        stop_driver.set()
        driver.join(timeout=10)
        stats = dispatcher.stats
    for worker in workers:
        worker.join()
    return ChaosRun(
        result=result, stats=stats, schedule=schedule, digest="",
        workers=workers, elapsed_s=elapsed, scale_log=scale_log,
    )


def run_chaos_fleet(
    jobs: Sequence[ShardJob],
    schedule: ChaosSchedule,
    store_dir: Optional[str] = None,
    decode=None,
    merge=None,
    timeout: float = 120.0,
    **dispatcher_kwargs,
) -> ChaosRun:
    """Dispatch ``jobs`` to a fleet realizing ``schedule``; return the run.

    The retry budget covers the scheduled failures by default: each
    worker fires at most one event, so ``max_retries`` defaults to
    ``len(schedule.events) + 1``.  Speculation defaults to a fixed
    threshold of half the stall time, so every ``stall`` event is
    speculation-eligible; pass ``speculate=False`` (or any dispatcher
    knob) to override.
    """
    run = _drive_chaos_fleet(
        schedule, store_dir,
        lambda dispatcher: dispatcher.dispatch(
            jobs, decode=decode, merge=merge, timeout=timeout
        ),
        dispatcher_kwargs,
    )
    run.digest = digest_of(run.result)
    run.artifact_path = record_artifact(schedule, jobs, run.digest, run.stats)
    return run


def run_chaos_dag(
    dag,
    schedule: ChaosSchedule,
    store_dir: Optional[str] = None,
    timeout: float = 180.0,
    **dispatcher_kwargs,
) -> ChaosRun:
    """Execute a :class:`~repro.distributed.dag.DagRun` on a chaos fleet.

    The scale-event scenario: the cross-kind pipeline runs through one
    dispatcher while the schedule's scale events grow and drain the
    pool mid-run (and any misbehaviour events fire), and the node
    results — keyed by node name in ``ChaosRun.result`` — must digest
    identically to the single-process phase-by-phase oracle.
    """
    run = _drive_chaos_fleet(
        schedule, store_dir,
        lambda dispatcher: dag.run(dispatcher, timeout=timeout),
        dispatcher_kwargs,
    )
    run.digest = digest_of(run.result)
    return run
