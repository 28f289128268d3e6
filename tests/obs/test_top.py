"""The `repro-sram top` renderer and poll loop, probe-free.

``render_dashboard`` is a pure function of a stats-probe document, so
the suite feeds it canned dispatcher probes; ``run_top`` gets a stub
``fetch`` instead of a live socket.
"""

import io

import pytest

from repro.errors import ConfigurationError
from repro.obs.top import CLEAR, render_dashboard, run_top

DISPATCH_STATS = {
    "stats_version": 1,
    "jobs": 10,
    "completed": 7,
    "assignments": 12,
    "retries": 2,
    "failures": 0,
    "speculations": 1,
    "speculative_wins": 1,
    "drain_requeues": 0,
    "store_hits": 3,
    "worker_cache_hits": 1,
    "computed": 6,
    "active_workers": 2,
    "workers_seen": 3,
    "workers_lost": 1,
    "per_worker": {"w0": 8, "w1": 4},
    "queues": {
        "depth": 3,
        "inflight": 2,
        "per_kind": {"margin_tally": 2, "is_shard": 1},
        "per_client": {"default": 3},
    },
    "latency": {"samples": 7, "mean": 0.30000000000000004, "p50": 0.25,
                "max": 1.0},
    "speculation": {"cutoff": 0.75},
    "store": {"store": "directory:/c", "hits": 8, "misses": 2, "puts": 10,
              "errors": 1},
}

#: A probe with no per-kind queues, latency or workers.
SINGLE_STORE_STATS = {
    "stats_version": 1,
    "jobs": 4,
    "completed": 4,
    "computed": 1,
    "store_hits": 3,
    "queues": {"depth": 0, "inflight": 0},
    "store": {"store": "directory:/s", "hits": 40, "misses": 60, "errors": 0},
}


class TestRenderDashboard:
    def test_dispatcher_frame(self):
        frame = render_dashboard(DISPATCH_STATS)
        assert "dispatcher probe (stats v1)" in frame
        assert "done 7/10" in frame
        assert "assignments 12" in frame
        assert "depth 3" in frame and "inflight 2" in frame
        assert "margin_tally" in frame
        assert "clients: default=3" in frame
        # Floats render at 6 significant digits.
        assert "mean 0.3s" in frame
        assert "speculation cutoff 0.75s" in frame
        assert "w0" in frame and "w1" in frame
        assert "directory:/c: hit-rate 80.0%" in frame
        assert "errors 1" in frame
        assert frame.endswith("\n")

    def test_single_store_frame(self):
        frame = render_dashboard(SINGLE_STORE_STATS, title="t")
        assert frame.startswith("t — dispatcher probe (stats v1)\n")
        assert "done 4/4" in frame
        assert "store-hits 3" in frame and "computed 1" in frame
        assert "directory:/s: hit-rate 40.0%" in frame

    def test_empty_tiers_and_zero_requests_render_dashes(self):
        frame = render_dashboard({
            "jobs": 0, "store": {"store": "directory:/e"},
        })
        assert "done 0/0" in frame
        assert "directory:/e: hit-rate - (hits 0" in frame  # no division by zero


class TestRunTop:
    def test_finite_iterations_render_frames(self):
        out = io.StringIO()
        calls = []

        def fetch(host, port):
            calls.append((host, port))
            return dict(DISPATCH_STATS)

        code = run_top("localhost", 9, interval=0.0, iterations=3,
                       clear=False, out=out, fetch=fetch,
                       sleep=lambda _s: None)
        assert code == 0
        assert calls == [("localhost", 9)] * 3
        assert out.getvalue().count("dispatcher probe") == 3
        assert CLEAR not in out.getvalue()

    def test_clear_mode_prefixes_each_frame(self):
        out = io.StringIO()
        run_top("h", 1, iterations=1, clear=True, out=out,
                fetch=lambda h, p: dict(DISPATCH_STATS), sleep=lambda _s: None)
        assert out.getvalue().startswith(CLEAR)

    def test_unreachable_probe_exits_nonzero(self):
        out = io.StringIO()

        def fetch(host, port):
            raise ConnectionRefusedError("down")

        code = run_top("h", 1, iterations=5, out=out, fetch=fetch)
        assert code == 1
        assert "unavailable" in out.getvalue()

    def test_default_fetch_is_the_client_stats_probe(self):
        # No stub: the real ResilientClient import path runs, against a
        # port nothing listens on, and run_top reports the probe down.
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead_port = sock.getsockname()[1]
        out = io.StringIO()
        code = run_top("127.0.0.1", dead_port, iterations=1, out=out)
        assert code == 1
        assert "unavailable" in out.getvalue()

    def test_ctrl_c_exits_cleanly(self):
        out = io.StringIO()

        def sleep(_seconds):
            raise KeyboardInterrupt

        code = run_top("h", 1, iterations=0, clear=False, out=out,
                       fetch=lambda h, p: dict(DISPATCH_STATS), sleep=sleep)
        assert code == 0

    def test_negative_interval_rejected_before_polling(self):
        calls = []
        with pytest.raises(ConfigurationError, match="interval"):
            run_top("h", 1, interval=-1.0, iterations=2, out=io.StringIO(),
                    fetch=lambda h, p: calls.append(h) or dict(DISPATCH_STATS),
                    sleep=lambda _s: None)
        assert calls == []
