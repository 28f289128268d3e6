"""Autoscaling worker-pool controller driven by the ``stats`` probe.

The dispatcher is deliberately passive about capacity: it serves
whatever workers connect and reports its queues over the same TCP
protocol (the ``stats`` probe).  This module closes the loop.  An
:class:`AutoscaleController` polls the probe, computes the worker count
the current backlog wants (:func:`desired_workers` — a pure function of
one stats document and one :class:`AutoscalePolicy`, so the sizing
logic is testable without a fleet), and reconciles a local pool of
worker *subprocesses* toward it:

* **scale-up** — backlog (queued + in-flight jobs) above what the live
  pool should absorb, or deep enough that the observed per-job compute
  latency says it will not drain inside ``target_drain_seconds``,
  spawns workers up to ``max_workers``;
* **scale-down** — every spawned worker carries ``--max-jobs``
  (``drain_max_jobs``), the worker's own graceful drain hook, so the
  pool continuously cycles through clean exits; the controller simply
  *stops respawning* when the desired count falls, and may additionally
  stop live workers once the fleet is fully idle (zero depth, zero
  in-flight — nothing to requeue);
* **crash restart** — a worker that exits non-zero is replaced after an
  exponential backoff (reset by any clean exit), so a poisoned
  environment cannot fork-bomb the host.

Correctness leans entirely on the dispatcher's existing contracts: a
killed worker's job requeues, a drained worker's in-flight assignment
is re-issued without burning a retry, and results are content-addressed
— so scaling events (including mid-run ones) can never change merged
bytes, only wall-clock time.  ``docs/distributed.md`` shows the
two-terminal workflow; the chaos harness replays scale events against
live runs in CI.
"""

from __future__ import annotations

import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.distributed.worker import worker_command as build_worker_command
from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import MetricsRegistry, publish_counters

__all__ = [
    "AutoscalePolicy",
    "AutoscaleController",
    "ScaleEvent",
    "desired_workers",
]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Sizing and lifecycle knobs of one :class:`AutoscaleController`.

    ``backlog_per_worker`` is the queued+in-flight job count one worker
    is expected to absorb before another is warranted.
    ``target_drain_seconds`` engages the latency signal: when the
    probe's observed mean compute latency says the backlog needs more
    than this long to drain on the current pool, the pool grows (still
    capped at ``max_workers``).  ``drain_max_jobs`` is passed to every
    spawned worker as ``--max-jobs`` — the graceful scale-down hook;
    ``None`` disables pool cycling (workers then only leave on crash or
    controller stop).
    """

    min_workers: int = 1
    max_workers: int = 4
    backlog_per_worker: int = 4
    target_drain_seconds: float = 30.0
    drain_max_jobs: Optional[int] = None
    poll_interval: float = 1.0
    backoff_base: float = 0.5
    backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.min_workers < 0:
            raise ConfigurationError(
                f"min_workers must be >= 0, got {self.min_workers}"
            )
        if self.max_workers < max(1, self.min_workers):
            raise ConfigurationError(
                f"max_workers must be >= max(1, min_workers), "
                f"got {self.max_workers}"
            )
        if self.backlog_per_worker < 1:
            raise ConfigurationError(
                f"backlog_per_worker must be >= 1, got {self.backlog_per_worker}"
            )
        if self.target_drain_seconds <= 0:
            raise ConfigurationError(
                f"target_drain_seconds must be > 0, got {self.target_drain_seconds}"
            )
        if self.drain_max_jobs is not None and self.drain_max_jobs < 1:
            raise ConfigurationError(
                f"drain_max_jobs must be >= 1, got {self.drain_max_jobs}"
            )
        if self.poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be > 0, got {self.poll_interval}"
            )
        if self.backoff_base <= 0 or self.backoff_max < self.backoff_base:
            raise ConfigurationError(
                "backoff_base must be > 0 and backoff_max >= backoff_base, "
                f"got {self.backoff_base}/{self.backoff_max}"
            )


def desired_workers(stats: Mapping[str, Any], policy: AutoscalePolicy) -> int:
    """The worker count ``stats`` asks for under ``policy``.

    Pure: two signals from one probe document, clamped to
    ``[min_workers, max_workers]``.

    * backlog: ``ceil((depth + inflight) / backlog_per_worker)``;
    * latency: ``ceil(backlog * mean_latency / target_drain_seconds)``
      when the probe has compute-latency samples — a short queue of
      very slow jobs still scales out.

    An idle fleet (no backlog) returns ``min_workers``.
    """
    queues = stats.get("queues") or {}
    depth = max(0, int(queues.get("depth", 0) or 0))
    inflight = max(0, int(queues.get("inflight", 0) or 0))
    backlog = depth + inflight
    if backlog == 0:
        return policy.min_workers
    want = math.ceil(backlog / policy.backlog_per_worker)
    latency = stats.get("latency") or {}
    mean = latency.get("mean")
    if isinstance(mean, (int, float)) and not isinstance(mean, bool) and mean > 0:
        want = max(
            want,
            math.ceil(backlog * float(mean) / policy.target_drain_seconds),
        )
    return max(policy.min_workers, min(policy.max_workers, max(1, want)))


@dataclass(frozen=True)
class ScaleEvent:
    """One controller action, for logs and assertions: ``spawn`` /
    ``drain`` (clean worker exit) / ``crash`` / ``stop`` (controller-
    initiated terminate) / ``stats-error``."""

    action: str
    worker: Optional[str]
    detail: str


@dataclass
class _Managed:
    """One spawned worker subprocess under controller management."""

    name: str
    proc: "subprocess.Popen[bytes]"
    stopping: bool = False


@dataclass(frozen=True)
class AutoscaleDecision:
    """What one :meth:`AutoscaleController.poll_once` saw and did."""

    desired: Optional[int]  # None: stats probe unreachable, pool kept
    alive: int
    depth: int = 0
    inflight: int = 0
    spawned: int = 0
    stopped: int = 0


class AutoscaleController:
    """Reconcile a local worker-subprocess pool against dispatcher load.

    Parameters
    ----------
    host, port:
        The dispatcher endpoint — both the stats probe the controller
        polls and the ``--connect`` endpoint spawned workers dial.
    policy:
        Sizing/lifecycle knobs (:class:`AutoscalePolicy`).
    cache_dir, store_url, lru_entries, lru_bytes, ttl:
        Store wiring forwarded to every spawned worker (the worker-side
        flags of ``repro-sram worker``).
    worker_command:
        Override the argv built for a worker name — tests substitute a
        stub process; the default runs ``repro.cli worker`` with this
        interpreter and the current environment.
    stats_fn, clock, sleep, popen:
        Injection points for tests: the probe call, the monotonic
        clock, the loop sleep and the process factory.

    The lifetime counters ``spawned_total``, ``crash_restarts`` and
    ``stats_errors`` are plain attributes; a collector on
    :attr:`metrics` publishes them as ``repro_autoscale_*`` series at
    scrape time, next to the pool-state gauges :meth:`poll_once` sets.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[AutoscalePolicy] = None,
        cache_dir: Optional[str] = None,
        store_url: Optional[str] = None,
        lru_entries: Optional[int] = None,
        lru_bytes: Optional[int] = None,
        ttl: Optional[float] = None,
        name_prefix: str = "auto-",
        worker_command: Optional[Callable[[str], List[str]]] = None,
        stats_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        popen: Optional[Callable[..., "subprocess.Popen[bytes]"]] = None,
    ):
        self.spawned_total = 0
        self.crash_restarts = 0
        self.stats_errors = 0
        self.metrics = MetricsRegistry()
        self.metrics.add_collector(
            lambda r: publish_counters(r, "repro_autoscale_", {
                "spawned": self.spawned_total,
                "crash_restarts": self.crash_restarts,
                "stats_errors": self.stats_errors,
            })
        )
        self.host = host
        self.port = int(port)
        self.policy = policy or AutoscalePolicy()
        self.cache_dir = cache_dir
        self.store_url = store_url
        self.lru_entries = lru_entries
        self.lru_bytes = lru_bytes
        self.ttl = ttl
        self.name_prefix = name_prefix
        self._worker_command = worker_command or self._default_worker_command
        self._stats_fn = stats_fn or self._request_stats
        self._clock = clock
        self._sleep = sleep
        self._popen = popen or subprocess.Popen
        self._workers: Dict[str, _Managed] = {}
        self._counter = 0
        self._consecutive_failures = 0
        self._next_spawn_at = 0.0
        self.events: List[ScaleEvent] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _request_stats(self) -> Dict[str, Any]:
        from repro.serving.server import request_stats

        return request_stats(self.host, self.port)

    def _default_worker_command(self, name: str) -> List[str]:
        return build_worker_command(
            self.host, self.port, name=name, cache_dir=self.cache_dir,
            store_url=self.store_url, lru_entries=self.lru_entries,
            lru_bytes=self.lru_bytes, ttl=self.ttl,
            max_jobs=self.policy.drain_max_jobs,
        )

    @property
    def alive(self) -> int:
        """Workers currently under management (spawned, not reaped)."""
        return len(self._workers)

    def _event(self, action: str, worker: Optional[str], detail: str) -> None:
        self.events.append(ScaleEvent(action=action, worker=worker, detail=detail))

    def _spawn(self) -> str:
        self._counter += 1
        name = f"{self.name_prefix}{self._counter}"
        proc = self._popen(
            self._worker_command(name), env=os.environ.copy()
        )
        self._workers[name] = _Managed(name=name, proc=proc)
        self.spawned_total += 1
        self._event("spawn", name, f"pid {proc.pid}")
        return name

    def _reap(self) -> None:
        """Collect exited workers; schedule crash backoff."""
        for name in list(self._workers):
            managed = self._workers[name]
            code = managed.proc.poll()
            if code is None:
                continue
            del self._workers[name]
            if managed.stopping or code == 0:
                # Clean drain (--max-jobs) or controller-initiated stop:
                # the pool is healthy, so any crash backoff resets.
                self._consecutive_failures = 0
                self._event("drain", name, f"exit {code}")
            else:
                self._consecutive_failures += 1
                self.crash_restarts += 1
                delay = min(
                    self.policy.backoff_max,
                    self.policy.backoff_base
                    * (2 ** (self._consecutive_failures - 1)),
                )
                self._next_spawn_at = max(
                    self._next_spawn_at, self._clock() + delay
                )
                self._event(
                    "crash", name, f"exit {code}, backoff {delay:.2f}s"
                )

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def poll_once(self) -> AutoscaleDecision:
        """One reconcile step: reap, probe, size, spawn/stop.

        Never raises on probe failure — an unreachable dispatcher keeps
        the current pool (workers reconnect-or-die on their own) and is
        recorded as a ``stats-error`` event.
        """
        self._reap()
        try:
            stats = self._stats_fn()
        except (ConnectionError, OSError, ValueError, ReproError) as exc:
            # ReproError covers the probe's own wrapping (request_stats
            # reports a refused/vanished dispatcher as ReproError, and a
            # garbled reply as ProtocolError) — an outage, not a crash.
            self.stats_errors += 1
            self._event("stats-error", None, str(exc))
            self.metrics.gauge("repro_autoscale_alive_workers").set(self.alive)
            return AutoscaleDecision(desired=None, alive=self.alive)

        desired = desired_workers(stats, self.policy)
        queues = stats.get("queues") or {}
        depth = int(queues.get("depth", 0) or 0)
        inflight = int(queues.get("inflight", 0) or 0)
        self.metrics.gauge("repro_autoscale_desired_workers").set(desired)
        self.metrics.gauge("repro_autoscale_queue_depth").set(depth)
        self.metrics.gauge("repro_autoscale_inflight").set(inflight)

        spawned = 0
        while self.alive < desired and self._clock() >= self._next_spawn_at:
            self._spawn()
            spawned += 1

        # Beyond "stop respawning", live workers are only stopped when
        # the fleet is fully idle: with zero depth and zero in-flight
        # there is nothing a terminated worker could force to requeue.
        stopped = 0
        if depth == 0 and inflight == 0:
            running = [m for m in self._workers.values() if not m.stopping]
            for managed in running[desired:]:
                managed.stopping = True
                managed.proc.terminate()
                self._event("stop", managed.name, "idle scale-down")
                stopped += 1

        self.metrics.gauge("repro_autoscale_alive_workers").set(self.alive)
        return AutoscaleDecision(
            desired=desired, alive=self.alive, depth=depth,
            inflight=inflight, spawned=spawned, stopped=stopped,
        )

    def run(self, stop: Optional[threading.Event] = None) -> None:
        """Poll until ``stop`` is set, then drain the pool."""
        stop = stop or self._stop
        try:
            while not stop.is_set():
                self.poll_once()
                self._sleep(self.policy.poll_interval)
        finally:
            self.drain()

    def drain(self, timeout: float = 10.0) -> None:
        """Terminate every managed worker and wait for the exits."""
        for managed in self._workers.values():
            managed.stopping = True
            if managed.proc.poll() is None:
                managed.proc.terminate()
        deadline = time.monotonic() + timeout
        for managed in self._workers.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                managed.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                managed.proc.kill()
                managed.proc.wait()
        self._reap()

    # ------------------------------------------------------------------
    # Thread facade
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the control loop on a daemon thread (pair with stop())."""
        if self._thread is not None:
            raise ConfigurationError("controller already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.run, args=(self._stop,),
            name="repro-autoscale", daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the loop and drain the pool (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        else:
            self.drain()

    def __enter__(self) -> "AutoscaleController":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
