"""Windowed request batching over the circuit-to-system simulator.

:class:`BatchingEvaluator` is the heart of the serving front-end.  It
accepts concurrent :class:`~repro.serving.request.EvalRequest`\\ s and
answers each one with the exact bytes the sequential
:meth:`~repro.core.framework.CircuitToSystemSimulator.evaluate` path
would produce, while doing strictly less work than one evaluation per
request:

1. **Response cache.**  Every response is stored in the shared
   content-addressed :class:`~repro.runtime.cache.ResultCache` under
   ``(simulator fingerprint, canonical request, schema rev)``; a repeat
   request — this process or any other sharing the cache directory —
   is answered without touching the simulator.
2. **Single-flight coalescing.**  Identical requests that arrive while
   the first is still being evaluated attach to the leader's
   :class:`~repro.runtime.singleflight.SingleFlight` future instead of
   queueing duplicate work.
3. **Batched flushes.**  Distinct requests are collected for up to
   ``batch_window`` seconds (or until ``max_batch`` of them are
   pending) and flushed through one
   :meth:`~repro.core.framework.CircuitToSystemSimulator.evaluate_batch`
   pass that shares the clean baseline across the whole batch and runs
   the batch's fault trials on the simulator's ``jobs`` threads.

The bit-identity contract and its verification are described in
``docs/serving.md``; the property suite in ``tests/serving`` exercises
random batch compositions against the sequential reference.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import MetricsRegistry, publish_counters
from repro.obs.tracing import Tracer, get_tracer
from repro.runtime.singleflight import SingleFlight
from repro.runtime.cache import CacheStore
from repro.serving.request import EvalRequest

#: Cache namespace of serving responses (``repro-sram cache clear
#: --namespace serve`` reaps them).
SERVE_NAMESPACE = "serve"

#: Response-schema revision, folded into every cache key; bump when the
#: response payload shape changes.
SERVE_REV = 1


@dataclass
class ServingStats:
    """Counters describing how much work the front-end avoided.

    ``requests`` splits into ``cache_hits`` (answered from the response
    store), ``coalesced`` (attached to an in-flight evaluation) and
    ``evaluations + errors`` (actually evaluated, or rejected).  The
    acceptance invariant of the serving layer is ``evaluations <
    requests`` whenever the traffic contains repeats.

    The ``stats`` probe reads these attributes; the evaluator's
    collector publishes the same values as ``repro_serve_*`` series on
    ``--metrics-port``.
    """

    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    batches: int = 0
    evaluations: int = 0
    errors: int = 0

    def summary(self) -> str:
        return (
            f"{self.requests} requests: {self.cache_hits} cache hits, "
            f"{self.coalesced} coalesced, {self.evaluations} evaluated "
            f"in {self.batches} batches, {self.errors} errors"
        )

    def to_dict(self) -> Dict[str, int]:
        """JSON-able snapshot — the ``{"type": "stats"}`` probe response."""
        return asdict(self)


@dataclass
class _Batch:
    """One flush unit: keyed requests awaiting a shared evaluation pass."""

    entries: List[Tuple[str, EvalRequest]] = field(default_factory=list)


class BatchingEvaluator:
    """Async batching/deduplicating front-end over one simulator.

    Parameters
    ----------
    simulator:
        The :class:`~repro.core.framework.CircuitToSystemSimulator` to
        serve.  Its fingerprint is folded into every cache key, so one
        cache directory can safely serve many differently-configured
        simulators.
    cache:
        Optional response :class:`~repro.runtime.cache.CacheStore` — a
        :class:`~repro.runtime.cache.ResultCache`, or any other tier up
        to the full :class:`~repro.runtime.tiering.TieredStore`
        (``--store-url`` on ``repro-sram serve``); ``None`` (or a
        disabled cache) serves every unique request from a live
        evaluation.
    batch_window:
        Seconds to hold the first pending request while more arrive.
        ``0`` still coalesces requests submitted in the same event-loop
        turn (the flush task runs after them), which is the common
        burst pattern.
    max_batch:
        Pending-request count that triggers an immediate flush.
    tracer:
        Span source for request/batch tracing; defaults to the process
        tracer (disabled unless explicitly enabled — spans never alter
        response bytes).
    """

    def __init__(
        self,
        simulator: Any,
        cache: Optional[CacheStore] = None,
        batch_window: float = 0.01,
        max_batch: int = 32,
        tracer: Optional[Tracer] = None,
    ):
        if batch_window < 0:
            raise ConfigurationError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self.simulator = simulator
        self.cache = cache
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.stats = ServingStats()
        #: Registry the CLI serves on ``--metrics-port``; a collector
        #: publishes :attr:`stats` into it at scrape time.
        self.metrics = MetricsRegistry()
        self.metrics.add_collector(
            lambda r: publish_counters(r, "repro_serve_", self.stats.to_dict())
        )
        self.tracer = tracer if tracer is not None else get_tracer()
        self._leader_spans: Dict[str, str] = {}
        self._fingerprint: str = simulator.fingerprint()
        self._flight = SingleFlight()
        self._pending: _Batch = _Batch()
        self._window_task: Optional["asyncio.Task[None]"] = None
        self._flush_tasks: Set["asyncio.Task[None]"] = set()
        # One worker thread, deliberately: batches run one at a time,
        # FIFO, and each batch already spreads its fault trials over
        # the simulator's ``jobs`` threads.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def cache_payload(self, request: EvalRequest) -> Dict[str, Any]:
        """Response-store address of one resolved request.

        The simulator fingerprint makes the key complete: a hit is
        bit-identical to a recompute because everything that could
        change the numbers — model image, tables, failure-model flags,
        request parameters — is hashed into the address.
        """
        return {
            "sim": self._fingerprint,
            "request": request.key_payload(),
            "rev": SERVE_REV,
        }

    def _flight_key(self, payload: Dict[str, Any]) -> str:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: EvalRequest) -> Dict[str, Any]:
        """Answer one request, deduplicating and batching as possible.

        Returns the response payload (see :meth:`_response_payload`),
        raising :class:`~repro.errors.ReproError` for requests the
        simulator rejects.  The response never records *how* it was
        served — cache hit, coalesced or evaluated — because the bytes
        must be identical either way; consult :attr:`stats` for that.
        """
        resolved = request.resolved(self.simulator.n_trials)
        self.stats.requests += 1
        span = self.tracer.start_span(
            "serve.request", attrs={"config": resolved.config, "vdd": resolved.vdd}
        )
        payload = self.cache_payload(resolved)
        key = self._flight_key(payload)
        # Flight first, cache second: joining an in-flight evaluation is
        # synchronous (no await between check and join), so a duplicate
        # can neither slip past its leader nor pay a pointless disk
        # read.  The cache read itself runs off-loop (store I/O must not
        # stall request intake), and the claim below re-checks the
        # flight, absorbing leaders that appeared during the read.  The
        # one interleaving left — a flight that completed entirely
        # within our read — costs a recompute of bytes the determinism
        # contract makes identical, never a wrong answer.
        if not self._flight.in_flight(key) and self.cache is not None:
            hit = await asyncio.get_running_loop().run_in_executor(
                None, partial(self.cache.get, SERVE_NAMESPACE, payload)
            )
            if hit is not None:
                self.stats.cache_hits += 1
                span.set_attr("outcome", "cache_hit")
                span.end()
                return hit

        future, leader = self._flight.claim(key)
        if leader:
            span.set_attr("outcome", "leader")
            ctx = span.context()
            if ctx is not None:
                self._leader_spans[key] = ctx.span_id
            self._pending.entries.append((key, resolved))
            if len(self._pending.entries) >= self.max_batch:
                self._flush_pending()
            elif self._window_task is None:
                self._window_task = asyncio.create_task(self._window_flush())
        else:
            self.stats.coalesced += 1
            span.set_attr("outcome", "coalesced")
            leader_id = self._leader_spans.get(key)
            if leader_id is not None:
                span.set_attr("coalesced_with", leader_id)
        # Shielded: the future is shared by every coalesced waiter (the
        # flush task, not any waiter, owns settling it), so one waiter's
        # cancellation must not poison the others' result.
        try:
            result: Dict[str, Any] = await asyncio.shield(future)
        except BaseException:
            span.end(status="error")
            raise
        span.end()
        return result

    async def drain(self) -> None:
        """Flush pending requests and wait for every in-flight batch."""
        self._flush_pending()
        while self._flush_tasks:
            tasks = tuple(self._flush_tasks)
            await asyncio.gather(*tasks, return_exceptions=True)
            self._flush_tasks.difference_update(tasks)

    async def close(self) -> None:
        """Drain outstanding work, then release the evaluation thread.

        (Draining already cancels the window timer: its first act is a
        flush, and flushing retires the timer.)
        """
        await self.drain()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    async def _window_flush(self) -> None:
        await asyncio.sleep(self.batch_window)
        self._window_task = None
        self._flush_pending()

    def _flush_pending(self) -> None:
        if self._window_task is not None:
            self._window_task.cancel()
            self._window_task = None
        batch, self._pending = self._pending, _Batch()
        if not batch.entries:
            return
        task = asyncio.create_task(self._run_batch(batch))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    async def _run_batch(self, batch: _Batch) -> None:
        """Evaluate one batch off-loop and settle every claimed future."""
        self.stats.batches += 1
        batch_span = self.tracer.start_span(
            "serve.batch", attrs={"size": len(batch.entries)}
        )
        loop = asyncio.get_running_loop()
        requests = [request for _, request in batch.entries]
        try:
            outcomes = await loop.run_in_executor(
                self._executor, partial(self._evaluate_batch_sync, requests)
            )
        except BaseException as exc:  # pragma: no cover - defensive:
            # _evaluate_batch_sync converts per-request failures into
            # outcomes, so only executor shutdown / loop teardown lands
            # here — and even then no claimed future may be stranded.
            for key, _ in batch.entries:
                self.stats.errors += 1
                self._leader_spans.pop(key, None)
                self._flight.reject(key, _as_exception(exc))
            batch_span.end(status="error")
            if not isinstance(exc, Exception):
                raise
            return
        rejected = 0
        for (key, _), outcome in zip(batch.entries, outcomes):
            self._leader_spans.pop(key, None)
            if isinstance(outcome, BaseException):
                self.stats.errors += 1
                rejected += 1
                self._flight.reject(key, outcome)
            else:
                self.stats.evaluations += 1
                self._flight.resolve(key, outcome)
        batch_span.set_attr("errors", rejected)
        batch_span.end()

    def _evaluate_batch_sync(
        self, requests: List[EvalRequest]
    ) -> List[Union[Dict[str, Any], BaseException]]:
        """One vectorized fault-injection pass over a batch of requests.

        Per-request failures (e.g. a voltage outside the characterized
        range) become per-request exceptions; the rest of the batch
        still evaluates.  Always runs on the evaluator's single worker
        thread, so batches execute one at a time even when several are
        in flight.
        Successful responses are also written to the store here — disk
        I/O belongs on this thread, not the event loop, and a store
        that cannot be written (full disk, permissions) degrades the
        cache, never the answer.
        """
        results: List[Union[Dict[str, Any], BaseException]] = [
            ConfigurationError("request was not evaluated")
        ] * len(requests)
        items = []
        injectors = []
        evaluated_index: List[int] = []
        for i, request in enumerate(requests):
            try:
                memory = self.simulator.memory_for(
                    request.config,
                    request.vdd,
                    msb_in_8t=request.msb_in_8t,
                    msb_per_layer=request.msb_per_layer,
                )
                # Building the injector here surfaces out-of-range
                # voltages and inconsistent rate vectors where the
                # failure can be pinned to one request, rather than
                # mid-batch; the built injector is passed through so the
                # batch pass does not rebuild it.
                injector = memory.fault_injector(
                    include_write_failures=self.simulator.include_write_failures,
                    include_read_disturb=self.simulator.include_read_disturb,
                )
            except ReproError as exc:
                results[i] = exc
                continue
            items.append((memory, request.n_trials, request.seed))
            injectors.append(injector)
            evaluated_index.append(i)

        if items:
            evaluations = self.simulator.evaluate_batch(items, injectors=injectors)
            for i, (memory, _, _), evaluation in zip(
                evaluated_index, items, evaluations
            ):
                response = self._response_payload(memory, evaluation)
                if self.cache is not None:
                    self.cache.put(
                        SERVE_NAMESPACE, self.cache_payload(requests[i]), response
                    )
                results[i] = response
        return results

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    @staticmethod
    def _response_payload(memory: Any, evaluation: Any) -> Dict[str, Any]:
        """JSON-able response: accuracy statistics plus memory accounting.

        Every value is a plain float/int/list so the payload survives a
        cache round trip byte-for-byte (JSON floats round-trip exactly);
        the numbers are exactly what the sequential
        ``simulator.evaluate`` + architecture properties report.
        """
        return {
            "baseline_accuracy": float(evaluation.baseline_accuracy),
            "trial_accuracies": [float(a) for a in evaluation.trial_accuracies],
            "mean_accuracy": float(evaluation.mean_accuracy),
            "std_accuracy": float(evaluation.std_accuracy),
            "min_accuracy": float(evaluation.min_accuracy),
            "accuracy_drop": float(evaluation.accuracy_drop),
            "expected_flips": float(evaluation.expected_flips),
            "n_trials": int(evaluation.n_trials),
            "memory": {
                "name": str(memory.name),
                "vdd": float(memory.vdd),
                "msb_allocation": [int(m) for m in memory.msb_allocation],
                "access_power": float(memory.access_power),
                "leakage_power": float(memory.leakage_power),
                "area": float(memory.area),
            },
        }


def sequential_response(
    simulator: Any, request: EvalRequest
) -> Dict[str, Any]:
    """The reference answer: one plain, unbatched simulator evaluation.

    This is the byte-identity oracle of the serving test suite — for any
    request, :meth:`BatchingEvaluator.submit` must return exactly this
    payload, however the request was batched, coalesced or cached.
    """
    resolved = request.resolved(simulator.n_trials)
    memory = simulator.memory_for(
        resolved.config,
        resolved.vdd,
        msb_in_8t=resolved.msb_in_8t,
        msb_per_layer=resolved.msb_per_layer,
    )
    evaluation = simulator.evaluate(
        memory, n_trials=resolved.n_trials, seed=resolved.seed
    )
    return BatchingEvaluator._response_payload(memory, evaluation)


def _as_exception(exc: BaseException) -> Exception:  # pragma: no cover
    if isinstance(exc, Exception):
        return exc
    return RuntimeError(f"batch evaluation aborted: {exc!r}")
