"""`repro-sram top`: a live fleet dashboard over the stats probes.

``run_top`` polls a dispatcher's ``stats`` probe and renders a
per-kind queue-depth / worker / cache-hit-rate dashboard in place.  The
renderer is a pure function of the probe document so tests can assert
its output without a live fleet.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, TextIO

from repro.errors import ConfigurationError

__all__ = ["render_dashboard", "run_top"]

CLEAR = "\x1b[2J\x1b[H"


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return f"{value:.6g}"


def _hit_rate(payload: Mapping[str, Any]) -> str:
    hits = payload.get("hits", 0)
    misses = payload.get("misses", 0)
    total = hits + misses
    if not total:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def _table(rows: List[List[str]], indent: str = "  ") -> List[str]:
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def _store_lines(store: Mapping[str, Any]) -> List[str]:
    return [
        "cache store",
        f"  {store.get('store', 'store')}: hit-rate {_hit_rate(store)}"
        f" (hits {_fmt(store.get('hits', 0))},"
        f" misses {_fmt(store.get('misses', 0))},"
        f" errors {_fmt(store.get('errors', 0))})",
    ]


def _dispatch_lines(stats: Mapping[str, Any]) -> List[str]:
    lines = [
        "workers   active "
        f"{_fmt(stats.get('active_workers', 0))}   seen {_fmt(stats.get('workers_seen', 0))}"
        f"   lost {_fmt(stats.get('workers_lost', 0))}",
        "jobs      done "
        f"{_fmt(stats.get('completed', 0))}/{_fmt(stats.get('jobs', 0))}"
        f"   assignments {_fmt(stats.get('assignments', 0))}"
        f"   retries {_fmt(stats.get('retries', 0))}"
        f"   failures {_fmt(stats.get('failures', 0))}",
        "specul.   started "
        f"{_fmt(stats.get('speculations', 0))}   won {_fmt(stats.get('speculative_wins', 0))}"
        f"   drain-requeues {_fmt(stats.get('drain_requeues', 0))}",
        "cache     store-hits "
        f"{_fmt(stats.get('store_hits', 0))}"
        f"   worker-hits {_fmt(stats.get('worker_cache_hits', 0))}"
        f"   computed {_fmt(stats.get('computed', 0))}",
    ]
    queues = stats.get("queues")
    if isinstance(queues, Mapping):
        lines.append(
            f"queue     depth {_fmt(queues.get('depth', 0))}"
            f"   inflight {_fmt(queues.get('inflight', 0))}"
        )
        per_kind = queues.get("per_kind")
        if isinstance(per_kind, Mapping) and per_kind:
            rows = [["kind", "queued"]]
            rows.extend([kind, _fmt(per_kind[kind])] for kind in sorted(per_kind))
            lines.extend(_table(rows))
        per_client = queues.get("per_client")
        if isinstance(per_client, Mapping) and per_client:
            lines.append(
                "  clients: "
                + " ".join(f"{c}={_fmt(per_client[c])}" for c in sorted(per_client))
            )
    latency = stats.get("latency")
    if isinstance(latency, Mapping) and latency.get("samples"):
        lines.append(
            f"latency   mean {_fmt(latency.get('mean'))}s"
            f"   p50 {_fmt(latency.get('p50'))}s   max {_fmt(latency.get('max'))}s"
            f"   ({_fmt(latency.get('samples'))} samples)"
        )
    speculation = stats.get("speculation")
    if isinstance(speculation, Mapping) and speculation.get("cutoff") is not None:
        lines.append(f"          speculation cutoff {_fmt(speculation.get('cutoff'))}s")
    replayed = stats.get("journal_replayed", 0)
    skipped = stats.get("journal_skipped", 0)
    if replayed or skipped:
        # Only dispatchers restarted on a journal show this line, so
        # probes of journal-less fleets render unchanged.
        lines.append(
            f"journal   replayed {_fmt(replayed)}   skipped {_fmt(skipped)}"
        )
    per_worker = stats.get("per_worker")
    if isinstance(per_worker, Mapping) and per_worker:
        rows = [["worker", "assignments"]]
        rows.extend([name, _fmt(per_worker[name])] for name in sorted(per_worker))
        lines.extend(_table(rows))
    return lines


def render_dashboard(stats: Mapping[str, Any], title: str = "repro-sram top") -> str:
    """Render one probe document as a dashboard frame."""
    header = f"{title} — dispatcher probe"
    version = stats.get("stats_version")
    if version is not None:
        header += f" (stats v{version})"
    lines = [header, "=" * len(header), *_dispatch_lines(stats)]
    store = stats.get("store")
    if isinstance(store, Mapping):
        lines.extend(_store_lines(store))
    return "\n".join(lines) + "\n"


def run_top(
    host: str,
    port: int,
    interval: float = 1.0,
    iterations: int = 0,
    clear: bool = True,
    out: Optional[TextIO] = None,
    fetch: Optional[Callable[[str, int], Dict[str, Any]]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll a stats probe and render frames until stopped.

    ``iterations=0`` polls forever (Ctrl-C exits cleanly); tests pass a
    finite count and a stub ``fetch``.  Returns a process exit code.
    A negative ``interval`` raises
    :class:`~repro.errors.ConfigurationError` before the first poll.

    Without a ``fetch`` stub the poll loop holds one
    :class:`~repro.distributed.client.ResilientClient` for its whole
    lifetime — a persistent connection that rides out dispatcher
    restarts with backoff instead of dialling a fresh socket per frame.
    """
    if interval < 0:
        raise ConfigurationError(f"interval must not be negative, got {interval}")
    client = None
    if fetch is None:
        from repro.distributed.client import ResilientClient

        client = ResilientClient(host, port)

        def fetch(_host: str, _port: int) -> Dict[str, Any]:
            assert client is not None
            return client.stats()

    stream = sys.stdout if out is None else out
    count = 0
    try:
        while True:
            try:
                stats = fetch(host, port)
            except Exception as exc:  # noqa: BLE001 - probe may be down
                stream.write(f"stats probe {host}:{port} unavailable: {exc}\n")
                return 1
            frame = render_dashboard(stats)
            if clear:
                stream.write(CLEAR)
            stream.write(frame)
            stream.flush()
            count += 1
            if iterations and count >= iterations:
                return 0
            sleep(interval)
    except KeyboardInterrupt:
        return 0
    finally:
        if client is not None:
            client.close()
