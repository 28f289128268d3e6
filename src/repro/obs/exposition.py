"""Prometheus text-format exposition over HTTP.

``MetricsServer`` wraps a threading HTTP server that renders a
:class:`~repro.obs.metrics.MetricsRegistry` at ``/metrics`` in the
Prometheus 0.0.4 text format.  It backs the ``--metrics-port`` flag on
``dispatch`` and ``worker``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .metrics import MetricsRegistry

__all__ = ["CONTENT_TYPE", "MetricsServer"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _MetricsHandler(BaseHTTPRequestHandler):
    server: "_MetricsHTTPServer"  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "unknown path (try /metrics)")
            return
        body = self.server.registry.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # scrapes must not spam the component's stdout


class _MetricsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple, registry: MetricsRegistry) -> None:
        super().__init__(address, _MetricsHandler)
        self.registry = registry


class MetricsServer:
    """Background ``/metrics`` endpoint for a registry.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  Usable as a context manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._server: Optional[_MetricsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("metrics server not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._server is not None:
            raise RuntimeError("metrics server already started")
        self._server = _MetricsHTTPServer((self.host, self._requested_port), self.registry)
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="metrics-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()
