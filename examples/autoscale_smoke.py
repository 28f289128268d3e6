"""Autoscaler smoke: a controller grows a real fleet 1 -> 3 -> drain.

This is the end-to-end acceptance script of the autoscaling controller
(CI runs it on every push):

1. start a :class:`~repro.distributed.ShardDispatcher` on localhost,
2. start an :class:`~repro.distributed.AutoscaleController` against it
   — real CLI worker *subprocesses*, the real ``stats`` probe, no fakes,
3. with the queue idle, watch the pool settle at ``min_workers`` (1),
4. dispatch a 60-shard Monte-Carlo voltage point and watch the backlog
   signal scale the pool to ``max_workers`` (3) mid-run,
5. after the queue drains, watch the idle pool scale back down, then
   stop the controller and assert every managed worker is reaped,
6. assert the merged result is **byte-identical** to the monolithic
   single-host ``analyze`` answer — workers joining and leaving
   mid-run must never show in the numbers.

Run it directly::

    PYTHONPATH=src python examples/autoscale_smoke.py
"""

import json
import os
import sys
import tempfile
import threading
import time

# A fresh result cache per run: shard jobs are content-addressed, so a
# stale REPRO_CACHE_DIR from an earlier smoke run would satisfy every
# job instantly and the scale-up would have nothing to react to.
os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-autoscale-cache-")

from repro.devices import ptm22  # noqa: E402
from repro.distributed import (  # noqa: E402
    AutoscaleController,
    AutoscalePolicy,
    ShardDispatcher,
)
from repro.runtime import ResultCache  # noqa: E402
from repro.sram import make_cell  # noqa: E402
from repro.sram.montecarlo import MonteCarloAnalyzer  # noqa: E402

# Deep enough that the queue outlives worker spawn + registration
# (a worker subprocess takes ~1-2 s to come up): ~60 shards of ~10k
# samples give the controller several seconds of visible backlog.
SAMPLES = int(os.environ.get("SMOKE_SAMPLES", "600000"))
SHARDS = 60
VDD = 0.70


def await_condition(what, predicate, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def main() -> int:
    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=SAMPLES,
        block_samples=max(1, SAMPLES // SHARDS),
    )
    print(f"monolithic reference: {SAMPLES} samples at {VDD} V ...")
    reference = analyzer.analyze(VDD)

    store_dir = tempfile.mkdtemp(prefix="repro-autoscale-smoke-")
    dispatcher = ShardDispatcher(
        store=ResultCache(store_dir),
        heartbeat_interval=0.2,
        heartbeat_timeout=2.0,
    )
    host, port = dispatcher.start()
    print(f"dispatcher on {host}:{port}, store {store_dir}")

    controller = AutoscaleController(
        host, port,
        policy=AutoscalePolicy(
            min_workers=1, max_workers=3,
            backlog_per_worker=3,  # 9 queued shards ask for 3 workers
            poll_interval=0.2,
        ),
        cache_dir=store_dir,
    )
    try:
        with controller:
            # Idle queue: the pool settles at min_workers.
            dispatcher.await_workers(1, timeout=120)
            await_condition("initial pool of 1", lambda: controller.alive == 1)
            print("pool at min_workers=1; dispatching "
                  f"{SHARDS} shards to trigger scale-up")

            outcome = {}

            def drive():
                outcome["rates"] = analyzer.analyze_sharded(
                    VDD, shards=SHARDS, dispatcher=dispatcher
                )

            run = threading.Thread(target=drive)
            run.start()

            # The backlog signal must grow the pool to max_workers while
            # the run is still in flight.
            await_condition("scale-up to 3", lambda: controller.alive == 3)
            print(f"scaled up: {controller.alive} workers alive, "
                  f"{dispatcher.stats.completed} shard(s) done")

            run.join(timeout=300)
            assert not run.is_alive(), "dispatch did not complete"
            rates = outcome["rates"]

            # Queue empty again: the idle pool scales back toward
            # min_workers before the controller is even stopped.
            await_condition("idle scale-down", lambda: controller.alive == 1)
            print("queue drained; pool back at min_workers=1")
        # Leaving the block stops the controller and drains the pool.
        assert controller.alive == 0, "controller left workers running"

        identical = (
            json.dumps(rates.to_dict(), sort_keys=True)
            == json.dumps(reference.to_dict(), sort_keys=True)
        )
        print(dispatcher.stats.summary())
        actions = [event.action for event in controller.events]
        assert identical, "autoscaled merge differs from monolithic analyze"
        assert dispatcher.stats.completed == SHARDS
        assert controller.spawned_total >= 3, actions
        assert actions.count("spawn") >= 3, actions
        assert controller.crash_restarts == 0, actions
        # The scaled-up workers genuinely served: more than one worker
        # registered and took assignments off the shared queue.
        assert dispatcher.stats.workers_seen >= 2, dispatcher.stats.summary()
        assert len(dispatcher.stats.per_worker) >= 2, (
            dispatcher.stats.per_worker
        )
        print("autoscale smoke OK: byte-identical merge across "
              f"{controller.spawned_total} spawned worker(s), "
              f"scale events: {actions}")
        return 0
    finally:
        controller.stop()
        dispatcher.close()


if __name__ == "__main__":
    sys.exit(main())
