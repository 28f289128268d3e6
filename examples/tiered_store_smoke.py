"""Tiered-store smoke: cold fleet over a warm object store, then a drill.

This is the end-to-end acceptance script of the tiered cache
(CI runs it on every push):

1. start a fake object store as a real subprocess via the CLI
   (``repro-sram objectstore``), parsing its ephemeral endpoint URL,
2. run a dispatcher + worker fleet at one voltage point with tiered
   stores (``memory LRU -> directory -> object store``) over **cold**
   local caches, which warms the remote tier through write-behind,
3. run a second fleet with *fresh* (cold) local caches against the now
   warm remote and assert **zero shard recomputation** — every job is a
   dispatcher-side store hit, no worker assignment happens, and the
   merged result is byte-identical to the monolithic ``analyze`` answer,
4. run a third fleet at a different voltage point and ``SIGKILL`` the
   object store mid-run: the run must still complete byte-identically
   (degradation is fail-open — a dead store degrades caching, never
   correctness) while the dispatcher's ``stats`` probe reports remote
   tier errors.

Run it directly::

    PYTHONPATH=src python examples/tiered_store_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

from repro.devices import ptm22
from repro.distributed import ObjectStore, ShardDispatcher, worker_command
from repro.distributed.client import request_stats
from repro.runtime import make_tiered_store
from repro.sram import make_cell
from repro.sram.montecarlo import MonteCarloAnalyzer

SAMPLES = int(os.environ.get("SMOKE_SAMPLES", "8000"))
SHARDS = 8
WARM_VDD = 0.70
DRILL_VDD = 0.75


def spawn_object_store():
    """Start ``repro-sram objectstore`` and parse its endpoint URL."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "objectstore",
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=os.environ.copy(),
    )
    line = process.stdout.readline().strip()
    url = line.rsplit(" ", 1)[-1]
    assert url.startswith("http://"), f"unexpected banner: {line!r}"
    return process, url


def run_fleet(analyzer, vdd, store_url, kill=None):
    """One dispatch over a fleet whose local cache tiers start cold.

    Returns ``(rates, dispatch_stats, probe)`` where ``probe`` is the
    dispatcher's TCP ``stats`` reply (the same document
    ``repro-sram dispatch --stats`` prints, including the nested
    ``store`` block).  ``kill``, when given, is invoked as soon as the
    dispatcher hands out its first shard assignment.
    """
    dispatch_dir = tempfile.mkdtemp(prefix="repro-tier-dispatch-")
    worker_dir = tempfile.mkdtemp(prefix="repro-tier-worker-")
    store = make_tiered_store(cache_dir=dispatch_dir, store_url=store_url)
    dispatcher = ShardDispatcher(
        store=store, heartbeat_interval=0.2,
    )
    host, port = dispatcher.start()
    worker = subprocess.Popen(worker_command(
        host, port, name="w0", store_url=store_url, cache_dir=worker_dir,
    ))
    try:
        dispatcher.await_workers(1, timeout=120)
        outcome = {}

        def drive():
            outcome["rates"] = analyzer.analyze_sharded(
                vdd, shards=SHARDS, dispatcher=dispatcher
            )

        run = threading.Thread(target=drive)
        run.start()
        if kill is not None:
            deadline = time.monotonic() + 120
            while (dispatcher.stats.assignments == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert dispatcher.stats.assignments > 0, (
                "no assignment before the drill kill"
            )
            kill()
        run.join(timeout=600)
        assert not run.is_alive(), "dispatch did not complete"
        probe = request_stats(host, port)
        return outcome["rates"], dispatcher.stats, probe
    finally:
        worker.terminate()
        worker.wait(timeout=30)
        dispatcher.close()
        store.close()
        for local_tier in (dispatch_dir, worker_dir):
            shutil.rmtree(local_tier, ignore_errors=True)


def main() -> int:
    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=SAMPLES,
        block_samples=max(1, SAMPLES // SHARDS),
    )
    print(f"monolithic references: {SAMPLES} samples at "
          f"{WARM_VDD} V and {DRILL_VDD} V ...")
    reference = {
        WARM_VDD: json.dumps(analyzer.analyze(WARM_VDD).to_dict(),
                             sort_keys=True),
        DRILL_VDD: json.dumps(analyzer.analyze(DRILL_VDD).to_dict(),
                              sort_keys=True),
    }

    store_process, url = spawn_object_store()
    print(f"object store subprocess at {url}")
    try:
        # Phase A: cold everything — computes, write-behind warms the
        # remote tier (run_fleet closes the dispatcher store, draining
        # the flusher queue before we look at the remote).
        rates, stats, _ = run_fleet(analyzer, WARM_VDD, url)
        assert json.dumps(rates.to_dict(), sort_keys=True) == \
            reference[WARM_VDD], "phase A differs from monolithic analyze"
        assert stats.computed == SHARDS, stats.summary()
        remote = ObjectStore(url).remote_stats()
        assert remote["objects"] >= SHARDS, remote
        print(f"phase A (warm-up) OK: {stats.computed} shards computed, "
              f"{remote['objects']} objects in the store")

        # Phase B: cold fleet, warm object store — zero recomputation.
        rates, stats, probe = run_fleet(analyzer, WARM_VDD, url)
        assert json.dumps(rates.to_dict(), sort_keys=True) == \
            reference[WARM_VDD], "phase B differs from monolithic analyze"
        assert stats.store_hits == SHARDS, stats.summary()
        assert stats.computed == 0, stats.summary()
        assert stats.assignments == 0, stats.summary()
        remote_tier = probe["store"]["tiers"]["remote"]
        assert remote_tier["hits"] == SHARDS, probe["store"]
        assert remote_tier["errors"] == 0, probe["store"]
        print(f"phase B (cold fleet, warm store) OK: {stats.store_hits} "
              "store hits, 0 computed, 0 assignments, byte-identical")

        # Phase C: degradation drill — SIGKILL the store mid-run at a
        # voltage point the remote has never seen.
        def kill_store():
            store_process.kill()
            store_process.wait(timeout=30)
            print("object store killed (SIGKILL) mid-run")

        rates, stats, probe = run_fleet(
            analyzer, DRILL_VDD, url, kill=kill_store
        )
        assert json.dumps(rates.to_dict(), sort_keys=True) == \
            reference[DRILL_VDD], "phase C differs from monolithic analyze"
        assert stats.completed == SHARDS, stats.summary()
        remote_tier = probe["store"]["tiers"]["remote"]
        assert remote_tier["errors"] > 0, probe["store"]
        print("phase C (degradation drill) OK: byte-identical output with "
              f"{remote_tier['errors']} remote errors reported by the "
              "stats probe")
        print("tiered-store smoke OK")
        return 0
    finally:
        if store_process.poll() is None:
            store_process.kill()
        store_process.wait(timeout=30)
        store_process.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
