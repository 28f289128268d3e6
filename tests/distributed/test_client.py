"""Tests of the resilient JSON-lines client.

The peer here is a *scripted* threaded TCP server: each accepted
connection consumes the next session script, so tests can produce the
exact failure shapes — mid-request EOF, malformed lines, refusals —
deterministically, with injected ``sleep``/``rng`` so nothing actually
waits.
"""

import json
import socket
import threading

import pytest

from repro.distributed.client import ClientError, ResilientClient, request_stats


class ScriptedServer:
    """Serves a fixed sequence of scripted sessions on one port.

    Each session is a list of actions, one per received request line:
    a dict is sent back as a JSON response line, the string ``"close"``
    severs the connection without responding (the restart shape), and
    any other string is sent verbatim (malformed-response shapes).
    When a session's actions run out, the connection closes.
    """

    def __init__(self, sessions):
        self.sessions = [list(session) for session in sessions]
        self.requests = []
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive(), "scripted server hung"

    def _serve(self):
        for session in self.sessions:
            conn, _ = self._listener.accept()
            stream = conn.makefile("r", encoding="utf-8")
            try:
                for action in session:
                    line = stream.readline()
                    if not line:
                        break
                    self.requests.append(json.loads(line))
                    if action == "close":
                        break
                    if isinstance(action, str):
                        conn.sendall(action.encode())
                    else:
                        conn.sendall((json.dumps(action) + "\n").encode())
            except OSError:
                pass
            finally:
                stream.close()
                conn.close()


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def make_client(server, **kwargs):
    kwargs.setdefault("sleep", lambda delay: None)
    return ResilientClient(server.host, server.port, **kwargs)


class TestRoundTrip:
    def test_persistent_connection_across_requests(self):
        with ScriptedServer([[{"ok": True, "n": 1}, {"ok": True, "n": 2}]]) as s:
            with make_client(s) as client:
                assert client.request({"type": "ping"})["n"] == 1
                assert client.request({"type": "ping"})["n"] == 2
                assert client.connects == 1 and client.reconnects == 0
        assert [r["type"] for r in s.requests] == ["ping", "ping"]

    def test_non_ok_responses_are_returned_not_raised(self):
        """Application-level refusals belong to the caller; only
        transport and protocol failures are the client's business."""
        refusal = {"ok": False, "code": "bad_request", "error": "nope"}
        with ScriptedServer([[refusal]]) as s:
            with make_client(s) as client:
                assert client.request({"type": "junk"}) == refusal

    def test_close_then_reuse_redials(self):
        with ScriptedServer([[{"ok": True}], [{"ok": True}]]) as s:
            client = make_client(s)
            client.request({})
            client.close()
            client.request({})
            assert client.connects == 2 and client.reconnects == 1


class TestReconnect:
    def test_server_restart_is_transparent(self):
        """The peer closes the connection between requests (a server
        restart): the next request re-dials and succeeds within its
        attempt budget."""
        with ScriptedServer([[{"ok": True, "n": 1}], [{"ok": True, "n": 2}]]) as s:
            with make_client(s) as client:
                assert client.request({})["n"] == 1
                assert client.request({})["n"] == 2
                assert client.reconnects == 1
                assert client.retries == 1

    def test_eof_exhausts_the_attempt_budget(self):
        with ScriptedServer([["close"], ["close"]]) as s:
            with make_client(s, max_attempts=2) as client:
                with pytest.raises(ClientError, match="no response"):
                    client.request({})
                assert client.retries == 1

    def test_unreachable_server_fails_after_max_attempts(self):
        client = ResilientClient(
            "127.0.0.1", free_port(), max_attempts=3, sleep=lambda d: None
        )
        with pytest.raises(ClientError, match="cannot reach"):
            client.request({})
        assert client.retries == 2 and client.connects == 0

    def test_fail_fast_mode_never_retries(self):
        client = ResilientClient(
            "127.0.0.1", free_port(), max_attempts=1, sleep=lambda d: None
        )
        with pytest.raises(ClientError, match="cannot reach"):
            client.request({})
        assert client.retries == 0

    def test_backoff_is_jittered_exponential_and_capped(self):
        sleeps = []
        client = ResilientClient(
            "127.0.0.1", free_port(), max_attempts=6,
            backoff=0.2, backoff_cap=0.5,
            sleep=sleeps.append, rng=lambda: 0.5,
        )
        with pytest.raises(ClientError, match="cannot reach"):
            client.request({})
        assert sleeps == [0.2, 0.4, 0.5, 0.5, 0.5]


class TestDeadline:
    def test_deadline_bounds_endless_redialling(self):
        client = ResilientClient(
            "127.0.0.1", free_port(), timeout=0.2,
            max_attempts=10**9, backoff=0.0, sleep=lambda d: None,
        )
        with pytest.raises(ClientError, match="deadline of 0.2s"):
            client.request({})

    def test_nonpositive_timeouts_rejected(self):
        with pytest.raises(ClientError, match="timeout must be positive"):
            ResilientClient("h", 1, timeout=0.0)
        client = ResilientClient("h", 1)
        with pytest.raises(ClientError, match="timeout must be positive"):
            client.request({}, timeout=-1.0)

    def test_attempt_budget_validated(self):
        with pytest.raises(ClientError, match="max_attempts"):
            ResilientClient("h", 1, max_attempts=0)


class TestProtocolViolations:
    def test_malformed_line_raises_without_retry(self):
        with ScriptedServer([["not json at all\n"]]) as s:
            with make_client(s, max_attempts=5) as client:
                with pytest.raises(ClientError, match="malformed response"):
                    client.request({})
                assert client.retries == 0

    def test_non_object_response_raises(self):
        with ScriptedServer([["[1, 2]\n"]]) as s:
            with make_client(s) as client:
                with pytest.raises(ClientError, match="JSON object"):
                    client.request({})


class TestStats:
    def test_stats_unwraps_the_probe_response(self):
        payload = {"ok": True, "stats": {"jobs": 3, "completed": 3}}
        with ScriptedServer([[payload]]) as s:
            with make_client(s) as client:
                assert client.stats() == {"jobs": 3, "completed": 3}
        assert s.requests == [{"type": "stats"}]

    def test_refused_probe_raises(self):
        with ScriptedServer([[{"ok": False, "error": "draining"}]]) as s:
            with make_client(s) as client:
                with pytest.raises(ClientError, match="refused: draining"):
                    client.stats()

    def test_shapeless_stats_raises(self):
        with ScriptedServer([[{"ok": True, "stats": [1, 2]}]]) as s:
            with make_client(s) as client:
                with pytest.raises(ClientError, match="'stats' object"):
                    client.stats()

    def test_request_stats_helper_is_a_fail_fast_probe(self):
        """``request_stats`` rides the client with ``max_attempts=1``:
        probes must answer now or fail now (a caller polling the probe
        on a schedule treats a miss as 'down', not 'wait')."""
        with ScriptedServer([[{"ok": True, "stats": {"jobs": 1}}]]) as s:
            assert request_stats(s.host, s.port) == {"jobs": 1}
        with pytest.raises(ClientError):
            request_stats("127.0.0.1", free_port(), timeout=0.5)
