"""JSON-lines wire protocol of the distributed shard dispatcher.

One JSON object per line, over a plain TCP stream (the client side
of probes is :mod:`repro.distributed.client`).  Every message
carries a ``type`` field; everything else is type-specific.

Worker → dispatcher
-------------------
``register``
    ``{"type": "register", "name": str, "pid": int, "protocol": int}``
    — first message on a worker connection; the dispatcher answers with
    ``welcome``.
``ready``
    The worker has capacity for one job.  Sent after ``welcome`` and
    after each ``result``/``error``; the dispatcher assigns work only
    to ready workers (pull model — backpressure by construction).
``heartbeat``
    Liveness beacon, sent every ``heartbeat_interval`` seconds (the
    interval arrives in ``welcome``).  Computation runs off the
    worker's event loop, so heartbeats flow *during* a shard, which is
    what lets the dispatcher distinguish a slow worker from a dead one.
``result``
    ``{"type": "result", "job_id": str, "value": ..., "cached": bool}``
    — the job's value (already persisted to the worker's cache store;
    ``cached`` marks a store hit that skipped computation).
``error``
    ``{"type": "error", "job_id": str, "error": str}`` — the job failed
    on this worker; the dispatcher retries it elsewhere.

Dispatcher → worker
-------------------
``welcome``
    Registration ack: ``{"type": "welcome", "heartbeat_interval": s}``.
``assign``
    ``{"type": "assign", "job": {...}}`` — one serialized
    :class:`~repro.distributed.jobs.ShardJob`.  When tracing is
    enabled the message additionally carries
    ``"trace": {"trace_id": str, "span_id": str}`` — the dispatcher's
    assignment-span context, which the worker parents its execution
    span to.  The field is *additive*: peers ignore unknown keys, so
    it rides along without a ``PROTOCOL_VERSION`` bump and an untraced
    peer interoperates unchanged.
``shutdown``
    No more work; the worker exits cleanly.  A worker *announcing* its
    own drain (``--max-jobs``) sends the same message and then waits up
    to :data:`DRAIN_ACK_TIMEOUT` for the dispatcher's acknowledging
    ``shutdown`` before tearing its stream down.

Any client (not just workers) may send ``{"type": "stats"}`` and
receives ``{"type": "stats", "ok": true, "stats": {...}}`` — the probe
behind ``repro-sram dispatch --stats``.  ``{"type": "flight"}``
likewise dumps the dispatcher's flight recorder (recent fleet events).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from repro.errors import ReproError

#: Protocol revision; bumped on incompatible message-shape changes.
#: The dispatcher rejects registrations from a different revision —
#: a version skew between hosts must fail loudly at registration, not
#: as a mid-run job error.
PROTOCOL_VERSION = 1

#: Per-connection line-length ceiling (bytes).  Shard tallies are a few
#: kilobytes per block; far below this.
STREAM_LIMIT = 1 << 22

#: Seconds a draining peer waits for the ``shutdown`` acknowledgement
#: before giving up on an orderly teardown.  Shared by both sides of
#: the drain handshake so neither outwaits the other; per-worker
#: override via ``Worker(ack_timeout=)``.
DRAIN_ACK_TIMEOUT = 10.0


class ProtocolError(ReproError):
    """A peer sent a line the dispatcher protocol cannot interpret."""


def dumps_line(payload: Dict[str, Any]) -> str:
    """Canonical one-line JSON (stable key order, no stray whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def parse_message(line: str) -> Dict[str, Any]:
    """One wire line → typed message object."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"a message line must hold a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("type")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("message lacks a 'type' field")
    return payload


async def send_message(
    writer: "asyncio.StreamWriter", payload: Dict[str, Any]
) -> None:
    """Write one message line and drain (raises on a gone peer)."""
    writer.write(dumps_line(payload).encode() + b"\n")
    await writer.drain()


async def recv_message(
    reader: "asyncio.StreamReader",
) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on a clean or abrupt end of stream.

    A connection reset is a normal end of conversation in this protocol
    (worker death is an expected event the dispatcher recovers from),
    so it maps to ``None`` rather than an exception.  Malformed lines
    raise :class:`ProtocolError`.
    """
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            # LimitOverrunError subclass: no message boundary can be
            # trusted from here on.
            raise ProtocolError(
                f"message line exceeds {STREAM_LIMIT} bytes"
            ) from None
        except (ConnectionError, OSError):
            return None
        if not raw:
            return None
        line = raw.decode(errors="replace").strip()
        if line:
            return parse_message(line)
