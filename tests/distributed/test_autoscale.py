"""Unit tests of the autoscaling controller (:mod:`repro.distributed.autoscale`).

The sizing logic (:func:`desired_workers`) is a pure function and is
tested as one; the controller is driven with injected fakes — a scripted
stats probe, a fake clock and a fake process factory — so every
lifecycle path (spawn, clean drain, crash backoff, idle scale-down,
probe outage) is deterministic.  The real-fleet path is covered by
``examples/autoscale_smoke.py`` (the CI autoscale smoke job) and the
chaos scale-event scenarios.
"""

import threading

import pytest

from repro.distributed.autoscale import (
    AutoscaleController,
    AutoscalePolicy,
    desired_workers,
)
from repro.distributed.worker import worker_command
from repro.errors import ConfigurationError, ReproError


def stats_doc(depth=0, inflight=0, mean=None):
    doc = {"queues": {"depth": depth, "inflight": inflight}}
    if mean is not None:
        doc["latency"] = {"samples": 8, "mean": mean, "p50": mean, "max": mean}
    return doc


class TestDesiredWorkers:
    def test_idle_fleet_returns_min_workers(self):
        policy = AutoscalePolicy(min_workers=2, max_workers=6)
        assert desired_workers(stats_doc(), policy) == 2
        assert desired_workers({}, policy) == 2  # probe doc without queues

    def test_backlog_scales_by_backlog_per_worker(self):
        policy = AutoscalePolicy(min_workers=1, max_workers=8,
                                 backlog_per_worker=4)
        assert desired_workers(stats_doc(depth=1), policy) == 1
        assert desired_workers(stats_doc(depth=4), policy) == 1
        assert desired_workers(stats_doc(depth=5), policy) == 2
        assert desired_workers(stats_doc(depth=6, inflight=3), policy) == 3

    def test_latency_signal_scales_a_short_slow_queue(self):
        """Two 30-second jobs cannot drain in 30 s on one worker: the
        latency term asks for two even though the backlog term says one."""
        policy = AutoscalePolicy(min_workers=1, max_workers=8,
                                 backlog_per_worker=4,
                                 target_drain_seconds=30.0)
        assert desired_workers(stats_doc(depth=2), policy) == 1
        assert desired_workers(stats_doc(depth=2, mean=30.0), policy) == 2

    def test_clamped_to_max_workers(self):
        policy = AutoscalePolicy(min_workers=1, max_workers=3,
                                 backlog_per_worker=1)
        assert desired_workers(stats_doc(depth=100), policy) == 3
        assert desired_workers(stats_doc(depth=2, mean=1e6), policy) == 3

    def test_garbage_latency_is_ignored(self):
        policy = AutoscalePolicy(max_workers=8, backlog_per_worker=4)
        for bad in (None, True, "slow", -1.0, 0):
            doc = stats_doc(depth=2)
            doc["latency"] = {"mean": bad}
            assert desired_workers(doc, policy) == 1


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(min_workers=-1),
        dict(min_workers=5, max_workers=4),
        dict(max_workers=0),
        dict(backlog_per_worker=0),
        dict(target_drain_seconds=0),
        dict(drain_max_jobs=0),
        dict(poll_interval=0),
        dict(backoff_base=0),
        dict(backoff_base=2.0, backoff_max=1.0),
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(**kwargs)

    def test_min_workers_zero_is_legal(self):
        assert AutoscalePolicy(min_workers=0).min_workers == 0


class FakeProc:
    """A controllable stand-in for ``subprocess.Popen``."""

    _pid = 4000

    def __init__(self, argv, env=None):
        FakeProc._pid += 1
        self.pid = FakeProc._pid
        self.argv = list(argv)
        self.returncode = None
        self.terminated = False

    def poll(self):
        return self.returncode

    def exit(self, code):
        self.returncode = code

    def terminate(self):
        # SIGTERM lands "immediately" in fake-land; a real worker exits
        # with a signal code, which is why the controller must lean on
        # its `stopping` flag rather than the exit status.
        self.terminated = True
        if self.returncode is None:
            self.returncode = -15

    def kill(self):
        if self.returncode is None:
            self.returncode = -9

    def wait(self, timeout=None):
        if self.returncode is None:
            self.returncode = 0
        return self.returncode


class Harness:
    """An AutoscaleController wired to fakes, plus the fakes themselves."""

    def __init__(self, policy=None, **controller_kwargs):
        self.procs = []
        self.now = 0.0
        self.doc = stats_doc()
        self.fail_probe = None  # set to an exception to break the probe
        self.probed = threading.Event()

        def popen(argv, env=None):
            proc = FakeProc(argv, env=env)
            self.procs.append(proc)
            return proc

        def probe():
            self.probed.set()
            if self.fail_probe is not None:
                raise self.fail_probe
            return self.doc

        self.controller = AutoscaleController(
            "127.0.0.1", 1,
            policy=policy or AutoscalePolicy(
                min_workers=1, max_workers=4, backlog_per_worker=4,
                backoff_base=0.5, backoff_max=4.0,
            ),
            worker_command=lambda name: ["worker-stub", name],
            stats_fn=probe,
            clock=lambda: self.now,
            sleep=lambda s: None,
            popen=popen,
        )

    def actions(self):
        return [event.action for event in self.controller.events]


class TestControllerLifecycle:
    def test_backlog_scales_up_to_desired(self):
        h = Harness()
        h.doc = stats_doc(depth=6, inflight=2)  # backlog 8 -> 2 workers
        decision = h.controller.poll_once()
        assert decision.desired == 2
        assert decision.spawned == 2 and decision.alive == 2
        assert decision.depth == 6 and decision.inflight == 2
        assert h.controller.spawned_total == 2
        assert [p.argv for p in h.procs] == [
            ["worker-stub", "auto-1"], ["worker-stub", "auto-2"],
        ]

    def test_clean_drain_is_respawned_while_backlog_remains(self):
        h = Harness(policy=AutoscalePolicy(drain_max_jobs=2))
        h.doc = stats_doc(depth=8)
        h.controller.poll_once()
        h.procs[0].exit(0)  # hit --max-jobs, drained cleanly
        decision = h.controller.poll_once()
        assert decision.spawned == 1 and decision.alive == 2
        assert h.actions().count("drain") == 1
        assert h.controller.crash_restarts == 0

    def test_crash_respawns_with_exponential_backoff(self):
        h = Harness()
        h.doc = stats_doc(depth=2)  # wants exactly 1 worker
        h.controller.poll_once()
        h.procs[0].exit(1)
        decision = h.controller.poll_once()  # reap crash, backoff gates
        assert h.controller.crash_restarts == 1
        assert decision.spawned == 0 and decision.alive == 0
        h.now = 0.49
        assert h.controller.poll_once().spawned == 0
        h.now = 0.5  # backoff_base elapsed
        assert h.controller.poll_once().spawned == 1
        # A second crash doubles the delay (0.5 -> 1.0 from *now*).
        h.procs[-1].exit(1)
        assert h.controller.poll_once().spawned == 0
        h.now += 0.99
        assert h.controller.poll_once().spawned == 0
        h.now += 0.01
        assert h.controller.poll_once().spawned == 1
        assert h.controller.crash_restarts == 2

    def test_clean_exit_resets_crash_backoff(self):
        h = Harness()
        h.doc = stats_doc(depth=2)
        h.controller.poll_once()
        h.procs[0].exit(1)
        h.controller.poll_once()
        h.now = 0.5
        h.controller.poll_once()
        h.procs[-1].exit(0)  # clean: the pool is healthy again
        h.controller.poll_once()
        h.procs[-1].exit(1)  # next crash starts back at backoff_base
        h.controller.poll_once()
        crash_events = [e for e in h.controller.events if e.action == "crash"]
        assert crash_events[-1].detail.endswith("backoff 0.50s")

    def test_idle_pool_scales_down_to_desired(self):
        h = Harness()
        h.doc = stats_doc(depth=12)  # 3 workers
        h.controller.poll_once()
        assert h.controller.alive == 3
        h.doc = stats_doc()  # fully idle: depth 0, inflight 0
        decision = h.controller.poll_once()
        assert decision.desired == 1 and decision.stopped == 2
        stopped = [p for p in h.procs if p.terminated]
        assert len(stopped) == 2
        # Terminated-by-controller workers reap as drains, not crashes,
        # even though SIGTERM gives them a nonzero exit status.
        h.controller.poll_once()
        assert h.controller.alive == 1
        assert h.controller.crash_restarts == 0
        assert h.actions().count("stop") == 2
        assert h.actions().count("drain") == 2

    def test_busy_pool_never_stops_live_workers(self):
        """Scale-down with work in flight is only "stop respawning":
        terminating a computing worker would requeue its job for free
        but still waste the compute."""
        h = Harness()
        h.doc = stats_doc(depth=12)
        h.controller.poll_once()
        h.doc = stats_doc(depth=0, inflight=1)  # draining, not idle
        decision = h.controller.poll_once()
        assert decision.desired == 1
        assert decision.stopped == 0
        assert not any(p.terminated for p in h.procs)

    @pytest.mark.parametrize("exc", [
        ConnectionError("dispatcher unreachable"),
        # request_stats wraps a refused/vanished dispatcher in the
        # library's own error type — still an outage, never a crash.
        ReproError("cannot reach a server at 127.0.0.1:8417"),
    ])
    def test_probe_outage_keeps_the_pool(self, exc):
        h = Harness()
        h.doc = stats_doc(depth=8)
        h.controller.poll_once()
        h.fail_probe = exc
        decision = h.controller.poll_once()
        assert decision.desired is None
        assert decision.alive == 2  # nothing spawned, nothing stopped
        assert h.controller.stats_errors == 1
        assert h.actions()[-1] == "stats-error"

    def test_drain_terminates_and_reaps_everything(self):
        h = Harness()
        h.doc = stats_doc(depth=16)
        h.controller.poll_once()
        assert h.controller.alive == 4
        h.controller.drain(timeout=1.0)
        assert h.controller.alive == 0
        assert all(p.returncode is not None for p in h.procs)
        assert h.controller.crash_restarts == 0  # stops are not crashes

    def test_run_with_stop_set_drains_immediately(self):
        h = Harness()
        h.doc = stats_doc(depth=8)
        h.controller.poll_once()
        stop = threading.Event()
        stop.set()
        h.controller.run(stop=stop)
        assert h.controller.alive == 0

    def test_start_stop_facade(self):
        h = Harness()
        h.doc = stats_doc(depth=8)
        with h.controller:
            # Wait for the loop's first probe so the poll (and its
            # spawns) deterministically happened before the stop.
            assert h.probed.wait(timeout=5)
        assert h.controller.alive == 0
        assert h.controller.spawned_total >= 2

    def test_metrics_publish_the_lifetime_counters_and_pool_gauges(self):
        h = Harness()
        h.doc = stats_doc(depth=2, inflight=1)  # wants exactly 1 worker
        h.controller.poll_once()
        h.procs[0].exit(1)
        h.fail_probe = ConnectionError("dispatcher unreachable")
        h.controller.poll_once()  # reap the crash, then a probe outage
        values = {
            row["name"]: row["value"]
            for row in h.controller.metrics.snapshot()["series"]
        }
        assert values == {
            "repro_autoscale_spawned_total": h.controller.spawned_total,
            "repro_autoscale_crash_restarts_total": h.controller.crash_restarts,
            "repro_autoscale_stats_errors_total": h.controller.stats_errors,
            "repro_autoscale_alive_workers": 0,
            "repro_autoscale_desired_workers": 1,
            "repro_autoscale_queue_depth": 2,
            "repro_autoscale_inflight": 1,
        }
        assert (h.controller.spawned_total, h.controller.crash_restarts,
                h.controller.stats_errors) == (1, 1, 1)


class TestWorkerCommand:
    def test_default_command_carries_store_wiring(self):
        controller = AutoscaleController(
            "10.0.0.5", 8417,
            policy=AutoscalePolicy(drain_max_jobs=32),
            cache_dir="/tmp/cache", store_url="http://store:9000",
            lru_entries=128, lru_bytes=1 << 20, ttl=0.0,
        )
        cmd = controller._default_worker_command("auto-9")
        joined = " ".join(cmd)
        assert "-m repro.cli worker" in joined
        assert "--connect 10.0.0.5:8417" in joined
        assert "--name auto-9" in joined
        assert "--cache-dir /tmp/cache" in joined
        assert "--store-url http://store:9000" in joined
        assert "--lru-entries 128" in joined
        assert "--lru-bytes 1048576" in joined
        assert "--ttl 0.0" in joined  # ttl=0 is a real tiering request
        assert "--max-jobs 32" in joined
        # The shared helper renders ttl=0 the same way for any spawner.
        assert worker_command("h", 1, ttl=0.0)[-2:] == ["--ttl", "0.0"]

    def test_minimal_command_has_no_store_flags(self):
        controller = AutoscaleController("127.0.0.1", 8417)
        cmd = controller._default_worker_command("auto-1")
        assert "--cache-dir" not in cmd
        assert "--store-url" not in cmd
        assert "--ttl" not in cmd
        assert "--max-jobs" not in cmd
