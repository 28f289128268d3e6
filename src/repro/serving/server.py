"""JSON-lines transport for the batch-serving front-end.

One request per line, one response per line.  A request is a JSON
object (see :class:`~repro.serving.request.EvalRequest.from_dict`);
a response is::

    {"ok": true,  "id": <echo or null>, "result": {...}}
    {"ok": false, "id": <echo or null>, "error": "<message>"}

The same protocol runs over two transports:

* :func:`respond_lines` / :func:`run_stdio` — requests from an
  in-memory sequence or stdin, responses in request order.  This is the
  socket-free mode the test suite and shell pipelines use; because all
  lines are submitted concurrently, it exercises the full batching and
  coalescing machinery.
* :func:`serve_tcp` — a line-oriented asyncio socket server.  Each
  connection multiplexes requests: responses are written as they
  complete, so clients match them to requests by the ``id`` echo.

Malformed lines are answered with ``ok: false`` rather than dropping
the connection — a serving process shared by many clients must not let
one bad request interrupt the others.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict, Iterable, List, Optional, Set, TextIO

from repro.errors import ReproError
from repro.obs.metrics import STATS_VERSION
from repro.serving.batcher import BatchingEvaluator
from repro.serving.request import EvalRequest, parse_object_line


#: Per-connection line-length ceiling (bytes).  Far above any legal
#: request; a line this long is a protocol violation, answered inline
#: before the connection closes.
STREAM_LIMIT = 1 << 20

#: Per-connection in-flight request ceiling (backpressure).  A client
#: that pipelines more than this many unanswered requests gets
#: structured ``overloaded`` errors instead of queueing the server into
#: the ground; well-behaved clients window their pipeline below it.
DEFAULT_MAX_INFLIGHT = 64

#: ``retry_after`` hint (seconds) attached to ``overloaded`` refusals —
#: long enough for a pipelined window to drain a few answers, short
#: enough that an honouring client (:class:`~repro.serving.client.
#: ResilientClient`) barely notices.
OVERLOADED_RETRY_AFTER = 0.05


def _dumps(payload: Dict[str, Any]) -> str:
    """Canonical one-line JSON (stable key order, no stray whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _error(
    request_id: Optional[str],
    message: str,
    code: str,
    retry_after: Optional[float] = None,
) -> str:
    """One structured error line.

    ``code`` is the machine-readable half of the error contract
    (``bad_request`` / ``overloaded`` / ``protocol`` / ``internal``);
    ``error`` stays the human-readable message clients log.
    ``retry_after`` (seconds) rides along on refusals the client should
    simply wait out — an additive field old clients ignore.
    """
    payload: Dict[str, Any] = {
        "ok": False, "id": request_id, "error": message, "code": code,
    }
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return _dumps(payload)


def _peek_request_id(line: str) -> Optional[str]:
    """Best-effort ``id`` extraction for errors raised before parsing."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if isinstance(payload, dict) and isinstance(payload.get("id"), str):
        return payload["id"]
    return None


async def respond_line(evaluator: BatchingEvaluator, line: str) -> str:
    """Answer one request line with one response line (never raises).

    Parse errors and simulator rejections come back as ``ok: false``
    responses with the library's message; an *unexpected* exception is
    also answered inline (typed, detail-free) because a server shared
    by many clients must not die for one request — only cancellation
    propagates.  The ``id`` echo survives any failure the wire payload
    carried it through, so a client can match the rejection to its
    request.
    """
    request_id: Optional[str] = None
    try:
        payload = parse_object_line(line)
        if isinstance(payload.get("id"), str):
            request_id = payload["id"]
        if "type" in payload:
            return _control_response(evaluator, payload, request_id)
        request = EvalRequest.from_dict(payload)
        result = await evaluator.submit(request)
    except ReproError as exc:
        return _error(request_id, str(exc), "bad_request")
    except asyncio.CancelledError:
        raise
    except Exception as exc:
        return _error(
            request_id, f"internal error ({type(exc).__name__})", "internal"
        )
    return _dumps({"ok": True, "id": request_id, "result": result})


def _control_response(
    evaluator: BatchingEvaluator,
    payload: Dict[str, Any],
    request_id: Optional[str],
) -> str:
    """Answer a control line (``{"type": ...}``) — not an evaluation.

    ``stats`` returns the evaluator's :class:`~repro.serving.batcher.ServingStats`
    counters; it does not count as a request itself, so probes never
    perturb the numbers they read.
    """
    kind = payload.get("type")
    if kind == "stats":
        stats: Dict[str, Any] = dict(evaluator.stats.to_dict())
        stats["stats_version"] = STATS_VERSION
        if evaluator.cache is not None:
            # Per-tier cache counters (docs/caching.md) ride along with
            # the serving counters.
            stats["store"] = evaluator.cache.stats_payload()
        return _dumps(
            {
                "ok": True,
                "id": request_id,
                "type": "stats",
                "stats": stats,
            }
        )
    return _error(request_id, f"unknown control type {kind!r}", "bad_request")


async def respond_lines(
    evaluator: BatchingEvaluator, lines: Iterable[str]
) -> List[str]:
    """Answer a batch of request lines, responses in request order.

    All requests are submitted concurrently, so identical lines
    coalesce and distinct lines share fault-injection passes exactly as
    they would arriving from concurrent socket clients.  Blank lines
    are ignored.
    """
    stripped = [line for line in (ln.strip() for ln in lines) if line]
    responses = await asyncio.gather(
        *(respond_line(evaluator, line) for line in stripped)
    )
    return list(responses)


def run_stdio(
    evaluator: BatchingEvaluator,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Serve one stdin-to-stdout exchange (the ``repro-sram serve --stdin``
    mode).

    Reads every line first, answers them all concurrently, writes the
    responses in input order, and returns 0 — the contract a shell
    pipeline (or a subprocess-driving test) wants.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    async def _run() -> List[str]:
        try:
            return await respond_lines(evaluator, stdin.readlines())
        finally:
            await evaluator.close()

    for response in asyncio.run(_run()):
        print(response, file=stdout)
    return 0


async def _serve_connection(
    evaluator: BatchingEvaluator,
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
) -> None:
    """Multiplex one client: spawn a task per line, write as completed.

    Abrupt disconnects (reset, kill) are a normal end of conversation,
    not a server error: reads and writes tolerate ``ConnectionError``,
    and a response whose client has gone is simply dropped.  A line
    exceeding :data:`STREAM_LIMIT` is answered with an inline error and
    then ends the conversation (the stream cannot be resynchronized).
    Completed answer tasks retire themselves from ``tasks``, so a
    long-lived connection holds state only for requests still in
    flight — and ``max_inflight`` bounds that state: a request arriving
    with the bound exhausted is refused with a structured
    ``overloaded`` error (the connection stays usable; the client
    retries once its pipeline drains).
    """
    write_lock = asyncio.Lock()
    tasks: Set["asyncio.Task[None]"] = set()

    async def write_line(response: str) -> None:
        try:
            async with write_lock:
                writer.write(response.encode() + b"\n")
                await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass  # client went away before its answer did

    async def answer(line: str) -> None:
        await write_line(await respond_line(evaluator, line))

    try:
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                # LimitOverrunError subclass: the line never fit the
                # stream buffer, so no request boundary can be trusted
                # from here on.
                await write_line(_error(
                    None,
                    f"request line exceeds {STREAM_LIMIT} bytes",
                    "protocol",
                ))
                break
            except (ConnectionError, OSError):  # pragma: no cover
                break  # reset mid-read
            if not raw:
                break
            line = raw.decode(errors="replace").strip()
            if not line:
                continue
            if len(tasks) >= max_inflight:
                # Backpressure: refuse rather than queue unboundedly.
                # The answer is immediate and carries the id echo, so a
                # pipelining client can tell *which* request to resend.
                await write_line(_error(
                    _peek_request_id(line),
                    f"overloaded: {max_inflight} requests already in "
                    "flight on this connection",
                    "overloaded",
                    retry_after=OVERLOADED_RETRY_AFTER,
                ))
                continue
            task = asyncio.create_task(answer(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        while tasks:
            pending = tuple(tasks)
            await asyncio.gather(*pending)
            tasks.difference_update(pending)
    finally:
        for task in tuple(tasks):
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass  # client went away mid-close


async def serve_tcp(
    evaluator: BatchingEvaluator,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
) -> "asyncio.AbstractServer":
    """Start (and return) the line-oriented TCP server.

    ``port=0`` binds an ephemeral port — callers read the concrete one
    off ``server.sockets[0].getsockname()``.  The caller owns the
    server's lifetime (``async with server`` or ``server.close()``).
    ``max_inflight`` bounds unanswered requests per connection; excess
    requests receive ``overloaded`` errors instead of queueing.
    """
    if max_inflight < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")

    async def handler(
        reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        await _serve_connection(
            evaluator, reader, writer, max_inflight=max_inflight
        )

    return await asyncio.start_server(
        handler, host=host, port=port, limit=STREAM_LIMIT
    )


def request_stats(host: str, port: int, timeout: float = 10.0) -> Dict[str, Any]:
    """Probe a running JSON-lines server for its stats counters.

    Works against both the serving front-end (``repro-sram serve``) and
    the distributed dispatcher (``repro-sram dispatch``) — each answers
    ``{"type": "stats"}`` with ``{"ok": true, "stats": {...}}`` — and
    returns the ``stats`` object.  This is the ``--stats`` probe of
    both CLIs.

    One-shot and fail-fast by design: a single attempt within
    ``timeout``, errors raised immediately — probe callers (smoke
    scripts, shell scripts) time their own retries.  Long-lived
    pollers should hold a
    :class:`~repro.serving.client.ResilientClient` instead, which is
    what this function wraps.
    """
    from repro.serving.client import ResilientClient

    with ResilientClient(
        host, port, timeout=timeout, max_attempts=1
    ) as client:
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


def run_tcp_forever(
    evaluator: BatchingEvaluator,
    host: str,
    port: int,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
) -> int:  # pragma: no cover
    """Blocking TCP entry point for the CLI (serves until interrupted;
    the serving machinery itself is exercised through serve_tcp)."""

    async def _run() -> None:
        server = await serve_tcp(
            evaluator, host=host, port=port, max_inflight=max_inflight
        )
        bound = server.sockets[0].getsockname()
        print(f"serving on {bound[0]}:{bound[1]} (JSON lines; Ctrl-C to stop)")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\n" + evaluator.stats.summary())
    return 0
