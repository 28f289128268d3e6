"""Resilient JSON-lines client and the ``stats`` probe helpers.

The distributed dispatcher (:mod:`repro.distributed.protocol`) speaks
newline-delimited JSON over TCP and answers ``{"type": "stats"}``
probes.  :class:`ResilientClient` is the one hardened client its
callers ride — the CLI ``--stats`` probes, the ``top`` dashboard and
the smoke scripts:

* **persistent connection** — one socket reused across requests,
  re-dialed lazily after a loss;
* **reconnect with backoff** — transport failures (refused dial, reset,
  peer EOF) retry up to ``max_attempts`` times with exponential
  backoff and ±50% jitter, all inside the request's deadline;
* **per-request deadlines** — every :meth:`request` observes one total
  deadline across connects, retries and waits (``timeout=`` per call,
  defaulting to the client-wide setting);
* **stats probes** — :meth:`stats` validates the probe response shape;
  :func:`request_stats` is the one-shot fail-fast form and
  :func:`format_stats` renders a probe for a terminal.

Failures that retrying cannot fix — a malformed response line, a
non-JSON-object payload — raise :class:`ClientError` immediately: a
peer this client cannot parse might be a different protocol entirely,
and hammering it with retries would only mask the misconfiguration.

The client is synchronous and thread-safe (one request in flight at a
time, serialized by a lock): its callers — CLI probes, the ``top``
dashboard, smoke scripts — are blocking code.  ``sleep`` and ``rng`` are
injectable for deterministic tests.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.errors import ReproError

__all__ = ["ClientError", "ResilientClient", "format_stats", "request_stats"]


class ClientError(ReproError):
    """The client could not complete a request (unreachable peer,
    exhausted deadline, unparseable response)."""


class ResilientClient:
    """Persistent, reconnecting client for the JSON-lines protocol.

    Parameters
    ----------
    host / port:
        The server to talk to (a dispatcher).
    timeout:
        Default per-request deadline in seconds — the *total* budget
        for one :meth:`request`, covering dials, retries and backoff
        pauses.
    max_attempts:
        Transport attempts per request (1 = fail on the first loss,
        the fail-fast mode one-shot probes use).
    backoff / backoff_cap:
        Reconnect delay: ``backoff`` seconds doubling per consecutive
        failure, capped at ``backoff_cap``, ±50% jitter.
    sleep / rng:
        Injection points for tests (defaults: :func:`time.sleep`,
        :func:`random.random`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        max_attempts: int = 3,
        backoff: float = 0.2,
        backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
    ):
        if timeout <= 0:
            raise ClientError(f"timeout must be positive, got {timeout}")
        if max_attempts < 1:
            raise ClientError(f"max_attempts must be >= 1, got {max_attempts}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.max_attempts = int(max_attempts)
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        self._sleep = sleep
        self._rng = rng
        #: Successful dials over the client's lifetime.
        self.connects = 0
        #: Successful dials that *replaced* a lost connection.
        self.reconnects = 0
        #: Transport-failure retries.
        self.retries = 0
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._stream: Optional[TextIO] = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _connect(self, timeout: float) -> None:
        """Dial if not connected (lazy: the first request connects)."""
        if self._sock is not None:
            return
        sock = socket.create_connection(
            (self.host, self.port), timeout=timeout
        )
        self._sock = sock
        self._stream = sock.makefile("r", encoding="utf-8")
        self.connects += 1
        if self.connects > 1:
            self.reconnects += 1

    def _drop(self) -> None:
        """Discard the connection (next request re-dials)."""
        stream, self._stream = self._stream, None
        sock, self._sock = self._sock, None
        for closable in (stream, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _backoff_delay(self, failures: int) -> float:
        """Jittered exponential delay after ``failures`` consecutive
        transport losses (±50% around the capped exponential)."""
        # The exponent is clamped so a long outage cannot overflow the
        # float conversion — the cap dominates long before 2**16 anyway.
        base = min(
            self.backoff_cap, self.backoff * (2 ** min(failures - 1, 16))
        )
        return base * (0.5 + self._rng())

    def _pause(self, delay: float) -> None:
        if delay > 0:
            self._sleep(delay)

    def request(
        self, payload: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send one request line, return the response object.

        One total deadline (``timeout`` or the client default) covers
        everything — dialling, transport retries and backoff pauses.
        Transport losses retry up to ``max_attempts`` times.  Raises
        :class:`ClientError` when the deadline or the attempt budget is
        exhausted, or on a response no retry can fix.  Non-``ok``
        responses are *returned*, not raised — their meaning belongs to
        the caller.
        """
        budget = self.timeout if timeout is None else float(timeout)
        if budget <= 0:
            raise ClientError(f"timeout must be positive, got {budget}")
        deadline = time.monotonic() + budget
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        data = line.encode() + b"\n"
        failures = 0
        with self._lock:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClientError(
                        f"deadline of {budget:g}s exhausted talking to "
                        f"{self.host}:{self.port}"
                    )
                lost: Optional[str] = None
                try:
                    self._connect(remaining)
                    assert self._sock is not None and self._stream is not None
                    self._sock.settimeout(remaining)
                    self._sock.sendall(data)
                    raw = self._stream.readline()
                except OSError as exc:
                    lost = f"cannot reach a server at {self.host}:{self.port}: {exc}"
                else:
                    if not raw.strip():
                        # EOF: the peer closed the stream under the
                        # request (server restart) — same transport
                        # meaning as a reset, so it retries the same way.
                        lost = (f"no response from {self.host}:{self.port} "
                                f"(connection closed)")
                if lost is not None:
                    self._drop()
                    failures += 1
                    if failures >= self.max_attempts:
                        raise ClientError(lost)
                    self.retries += 1
                    self._pause(min(
                        self._backoff_delay(failures),
                        max(0.0, deadline - time.monotonic()),
                    ))
                    continue
                try:
                    response = json.loads(raw)
                except ValueError as exc:
                    self._drop()
                    raise ClientError(
                        f"malformed response from {self.host}:{self.port}: "
                        f"{exc}"
                    ) from None
                if not isinstance(response, dict):
                    self._drop()
                    raise ClientError(
                        f"response line must hold a JSON object, got "
                        f"{type(response).__name__}"
                    )
                return response

    # ------------------------------------------------------------------
    # Stats polling
    # ------------------------------------------------------------------
    def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """One validated ``{"type": "stats"}`` probe → the stats object.

        Refusals and shape violations raise :class:`ClientError`.
        """
        response = self.request({"type": "stats"}, timeout=timeout)
        if not response.get("ok"):
            raise ClientError(
                f"stats probe refused: {response.get('error')}"
            )
        stats = response.get("stats")
        if not isinstance(stats, dict):
            raise ClientError("stats response lacks a 'stats' object")
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self._sock is not None else "idle"
        return f"ResilientClient({self.host}:{self.port}, {state})"


def request_stats(host: str, port: int, timeout: float = 10.0) -> Dict[str, Any]:
    """Probe a running dispatcher for its stats counters.

    The dispatcher answers ``{"type": "stats"}`` with
    ``{"ok": true, "stats": {...}}``; this returns the ``stats`` object.
    It is the ``dispatch --stats`` probe.

    One-shot and fail-fast by design: a single attempt within
    ``timeout``, errors raised immediately — probe callers (smoke
    scripts, shell scripts) time their own retries.  Long-lived
    pollers should hold a :class:`ResilientClient` instead, which is
    what this function wraps.
    """
    with ResilientClient(host, port, timeout=timeout, max_attempts=1) as client:
        return client.stats()


def _format_value(value: Any) -> str:
    """Display form of one probe scalar.

    Floats render at 6 significant digits — accumulated latency sums
    like ``0.30000000000000004`` are measurement noise past that — but
    only for *display*: the JSON payload :func:`request_stats` returns
    keeps the exact values.
    """
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_stats(stats: Dict[str, Any], indent: int = 0) -> str:
    """Aligned ``key : value`` rendering of one stats probe response.

    Nested objects — the per-tier ``store`` block a tiered cache adds,
    or the dispatcher's per-kind queue depths — render as indented
    sections, so one probe shows scheduling counters and cache-tier
    counters in a single readable report.  Keys sort by their string
    form at every level, so the rendering is deterministic even when a
    probe mixes key types.  Floats display at 6 significant digits
    (see :func:`_format_value`); the wire payload stays exact.
    """
    scalars = {k: v for k, v in stats.items() if not isinstance(v, dict)}
    nested = {k: v for k, v in stats.items() if isinstance(v, dict)}
    pad = " " * indent
    lines: List[str] = []
    if scalars:
        width = max(len(str(key)) for key in scalars)
        lines.extend(
            f"{pad}{str(key):<{width}s} : {_format_value(scalars[key])}"
            for key in sorted(scalars, key=str)
        )
    for key in sorted(nested, key=str):
        lines.append(f"{pad}{key}:")
        lines.append(format_stats(nested[key], indent=indent + 2))
    return "\n".join(lines)
