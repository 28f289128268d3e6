"""Worker-side protocol edges: registration, welcome validation, drains.

These tests script the *dispatcher* side of the wire by hand, so they
can send exactly the malformed welcome documents a real dispatcher
never would — the worker must refuse them with a documented
:class:`~repro.distributed.protocol.ProtocolError`, never a bare
``KeyError`` out of the message loop.
"""

import asyncio
import threading

import pytest

from repro.distributed import ProtocolError, run_worker
from repro.distributed.jobs import execute_job, margin_tally_jobs
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    STREAM_LIMIT,
    recv_message,
    send_message,
)
from repro.distributed.worker import Worker, worker_command
from repro.errors import ConfigurationError
from repro.runtime import ResultCache

from tests.distributed.conftest import make_dispatcher


GOOD_WELCOME = {
    "type": "welcome",
    "protocol": PROTOCOL_VERSION,
    "heartbeat_interval": 5.0,
}


class ScriptedDispatcher:
    """A hand-scripted dispatcher endpoint.

    Accepts one worker, records its ``register`` message, replies with
    the configured ``welcome`` document (or nothing), then — if the
    worker survives to send ``ready`` — answers with ``shutdown`` and
    reads the stream to EOF.  Use as a context manager; ``host``/
    ``port`` are live inside the block.
    """

    def __init__(self, welcome=GOOD_WELCOME):
        self.welcome = welcome
        self.register = None
        self.received = []
        self.host = "127.0.0.1"
        self.port = None
        self._ready = threading.Event()
        self._thread = None

    def __enter__(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=10), "scripted dispatcher never bound"
        return self

    def __exit__(self, *exc):
        self._thread.join(timeout=20)
        assert not self._thread.is_alive(), "scripted dispatcher hung"

    async def _serve(self):
        done = asyncio.Event()

        async def handle(reader, writer):
            try:
                self.register = await recv_message(reader)
                if self.welcome is not None:
                    await send_message(writer, self.welcome)
                    while True:
                        message = await recv_message(reader)
                        if message is None:
                            break
                        self.received.append(message)
                        if message.get("type") == "ready":
                            await send_message(writer, {"type": "shutdown"})
            except (ProtocolError, ConnectionError, OSError):
                pass
            finally:
                writer.close()
                done.set()

        server = await asyncio.start_server(
            handle, self.host, 0, limit=STREAM_LIMIT
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await asyncio.wait_for(done.wait(), timeout=30)


def _run(worker: Worker) -> int:
    return asyncio.run(worker.run())


class TestWelcomeValidation:
    def test_clean_round_trip(self):
        with ScriptedDispatcher() as d:
            assert _run(Worker(d.host, d.port, name="w")) == 0
        assert d.register["type"] == "register"
        assert d.register["name"] == "w"
        assert d.register["protocol"] == PROTOCOL_VERSION
        assert [m["type"] for m in d.received] == ["ready"]

    def test_non_welcome_reply_is_protocol_error(self):
        with ScriptedDispatcher(
            welcome={"type": "error", "error": "version skew"}
        ) as d:
            with pytest.raises(ProtocolError, match="rejected registration"):
                _run(Worker(d.host, d.port))

    def test_missing_type_key_is_protocol_error_not_keyerror(self):
        """The historical bug shape: a type-less welcome must surface
        as the documented ProtocolError (here from envelope validation
        in ``recv_message``), never as a bare ``KeyError``."""
        with ScriptedDispatcher(welcome={"heartbeat_interval": 1.0}) as d:
            with pytest.raises(ProtocolError, match="'type'"):
                _run(Worker(d.host, d.port))

    @pytest.mark.parametrize("interval", [0, -1, -0.5, "fast", True, None])
    def test_bad_heartbeat_interval_is_rejected(self, interval):
        """A zero/negative/non-numeric interval would busy-loop the
        heartbeat task; the worker must refuse to serve under it."""
        welcome = dict(GOOD_WELCOME, heartbeat_interval=interval)
        with ScriptedDispatcher(welcome=welcome) as d:
            with pytest.raises(ProtocolError, match="heartbeat_interval"):
                _run(Worker(d.host, d.port))

    def test_absent_heartbeat_interval_defaults(self):
        """An old dispatcher that omits the field still gets served."""
        welcome = {"type": "welcome", "protocol": PROTOCOL_VERSION}
        with ScriptedDispatcher(welcome=welcome) as d:
            assert _run(Worker(d.host, d.port)) == 0

    def test_run_worker_exits_1_on_protocol_error(self, capsys):
        """``run_worker`` turns the documented ProtocolError into a
        nonzero exit code instead of a traceback."""
        welcome = dict(GOOD_WELCOME, heartbeat_interval=0)
        with ScriptedDispatcher(welcome=welcome) as d:
            assert run_worker(d.host, d.port) == 1
        assert "heartbeat_interval" in capsys.readouterr().out


class MultiSessionDispatcher:
    """Serves a scripted *sequence* of sessions on one port — the
    restart shapes a reconnecting worker must ride out.

    Behaviors, one per accepted connection:

    * ``"serve"`` — welcome, answer the first ``ready`` with
      ``shutdown`` (a clean session).
    * ``"drop"`` — welcome, then sever the connection: the worker sees
      EOF *after* registering, the dispatcher-restart shape.
    * ``"reject"`` — refuse registration with an error document, the
      version-skew shape (must stay fatal even under ``reconnect``).
    """

    def __init__(self, sessions, port=0):
        self.sessions = list(sessions)
        self.registers = []
        self.host = "127.0.0.1"
        self.port = port
        self._ready = threading.Event()
        self._thread = None

    def __enter__(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=10), "scripted dispatcher never bound"
        return self

    def __exit__(self, *exc):
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "scripted dispatcher hung"

    async def _serve(self):
        remaining = list(self.sessions)
        done = asyncio.Event()

        async def handle(reader, writer):
            behavior = remaining.pop(0) if remaining else "serve"
            try:
                self.registers.append(await recv_message(reader))
                if behavior == "reject":
                    await send_message(
                        writer, {"type": "error", "error": "version skew"}
                    )
                    return
                await send_message(writer, GOOD_WELCOME)
                if behavior == "drop":
                    return
                while True:
                    message = await recv_message(reader)
                    if message is None:
                        return
                    if message.get("type") == "ready":
                        await send_message(writer, {"type": "shutdown"})
            except (ProtocolError, ConnectionError, OSError):
                pass
            finally:
                writer.close()
                if not remaining:
                    done.set()

        server = await asyncio.start_server(
            handle, self.host, self.port, limit=STREAM_LIMIT
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await asyncio.wait_for(done.wait(), timeout=30)


def _free_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestReconnect:
    def test_rides_out_a_dispatcher_restart(self):
        """EOF after registration, then a healthy dispatcher on the
        same port: the worker re-registers and serves to shutdown."""
        with MultiSessionDispatcher(["drop", "serve"]) as d:
            worker = Worker(
                d.host, d.port, name="phoenix",
                reconnect=True, reconnect_backoff=0.02,
            )
            assert _run(worker) == 0
        assert worker.reconnects == 1
        assert [r["name"] for r in d.registers] == ["phoenix", "phoenix"]

    def test_without_reconnect_eof_is_a_clean_exit(self):
        """The historical contract: a gone dispatcher ends a default
        worker cleanly (it served until the dispatcher stopped)."""
        with MultiSessionDispatcher(["drop"]) as d:
            worker = Worker(d.host, d.port)
            assert _run(worker) == 0
        assert worker.reconnects == 0

    def test_exhausted_attempts_raise_connection_error(self):
        worker = Worker(
            "127.0.0.1", _free_port(),
            reconnect=True, reconnect_backoff=0.01,
            reconnect_max_attempts=2,
        )
        with pytest.raises(ConnectionError, match="2 reconnect attempts"):
            _run(worker)

    def test_run_worker_exits_1_only_after_exhaustion(self, capsys):
        assert run_worker(
            "127.0.0.1", _free_port(),
            reconnect=True, reconnect_backoff=0.01,
            reconnect_max_attempts=1,
        ) == 1
        assert "reconnect attempts" in capsys.readouterr().out

    def test_dials_until_the_dispatcher_appears(self):
        """A worker started before its dispatcher binds keeps dialing
        instead of dying — fleet and control plane can start in any
        order."""
        port = _free_port()
        worker = Worker(
            "127.0.0.1", port, name="early",
            reconnect=True, reconnect_backoff=0.05,
        )
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(rc=_run(worker)), daemon=True
        )
        thread.start()
        import time

        time.sleep(0.2)  # let a few dials fail first
        with MultiSessionDispatcher(["serve"], port=port) as d:
            thread.join(timeout=20)
        assert not thread.is_alive(), "worker never reached the dispatcher"
        assert result["rc"] == 0
        assert d.registers and d.registers[0]["name"] == "early"

    def test_protocol_errors_stay_fatal_under_reconnect(self):
        """A dispatcher this worker cannot understand must not be
        re-dialled — version skew is not an outage."""
        with MultiSessionDispatcher(["reject"]) as d:
            worker = Worker(d.host, d.port, reconnect=True,
                            reconnect_backoff=0.01)
            with pytest.raises(ProtocolError, match="rejected registration"):
                _run(worker)
        assert len(d.registers) == 1


class TestDrainAckTimeout:
    def test_default_is_the_protocol_constant(self):
        from repro.distributed.protocol import DRAIN_ACK_TIMEOUT

        assert DRAIN_ACK_TIMEOUT == 10.0
        assert Worker("h", 1).ack_timeout == DRAIN_ACK_TIMEOUT

    def test_knob_bounds_the_silent_peer_wait(self):
        """A silent dispatcher cannot hold a draining worker past the
        configured ack timeout (the old hardcoded wait was 10s)."""
        import time

        async def scenario():
            worker = Worker("127.0.0.1", 1, ack_timeout=0.05)
            await worker._await_drain_ack(asyncio.StreamReader())

        start = time.monotonic()
        asyncio.run(scenario())
        assert time.monotonic() - start < 5.0


class TestWorkerCliRoundTrip:
    def test_ttl_zero_treats_entries_as_misses(
        self, dist_analyzer, tmp_path, monkeypatch
    ):
        """``worker --ttl 0``: a job whose result is already in the
        worker's store reads it as an expired miss and computes it."""
        import repro.distributed.worker as worker_module
        from repro.cli import main

        stores = []

        class RecordingCache(ResultCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(worker_module, "ResultCache", RecordingCache)
        cache_dir = str(tmp_path / "cache")
        resolved = dist_analyzer.resolved()
        (job,) = margin_tally_jobs(resolved, 0.7, resolved.shard_plan(shards=1))
        assert execute_job(job, ResultCache(cache_dir))[1] is False
        codes = []
        with make_dispatcher() as dispatcher:
            host, port = dispatcher.start()
            worker = threading.Thread(target=lambda: codes.append(main([
                "worker", "--connect", f"{host}:{port}",
                "--cache-dir", cache_dir, "--ttl", "0",
            ])), daemon=True)
            worker.start()
            dist_analyzer.analyze_sharded(0.7, shards=1, dispatcher=dispatcher)
            stats = dispatcher.stats
        worker.join(10)
        assert codes == [0]
        assert (stats.worker_cache_hits, stats.computed) == (0, 1)
        (store,) = stores
        assert store.ttl == 0.0
        assert (store.tier.hits, store.tier.misses) == (0, 1)
        assert store.tier.expirations == 1


class TestWorkerCommand:
    def test_default_command_carries_store_wiring(self):
        from repro.cli import build_parser

        cmd = worker_command(
            "10.0.0.5", 8417, name="auto-9", cache_dir="/tmp/cache",
            reconnect=True,
        )
        assert cmd[1:4] == ["-m", "repro.cli", "worker"]
        # The argv parses as the CLI's own worker command.
        args = build_parser().parse_args(cmd[3:])
        assert (args.connect, args.name, args.cache_dir, args.reconnect) == (
            "10.0.0.5:8417", "auto-9", "/tmp/cache", True)

    def test_minimal_command_has_no_store_flags(self):
        cmd = worker_command("127.0.0.1", 8417)
        assert cmd[3:] == ["worker", "--connect", "127.0.0.1:8417"]


def test_max_jobs_below_one_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="max_jobs"):
        Worker("127.0.0.1", 1, max_jobs=0)
