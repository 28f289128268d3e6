"""Distributed-dispatch smoke: 2 real workers, one killed mid-run.

This is the end-to-end acceptance script of the distributed subsystem
(CI runs it on every push):

1. start a :class:`~repro.distributed.ShardDispatcher` on localhost,
2. spawn two genuine worker *subprocesses* via the CLI
   (``repro-sram worker --connect ...``) sharing one cache store,
3. dispatch an 8-shard Monte-Carlo voltage point to the fleet,
4. ``SIGKILL`` one worker as soon as it holds a shard assignment,
5. assert the merged result is **byte-identical** to the monolithic
   single-host ``analyze`` answer, and that the dispatcher recorded the
   death and the reassignment.

With ``--metrics-port`` the dispatcher's registry is scraped over HTTP
mid-run and the required ``repro_dispatch_*`` series are asserted
non-zero; after the merge a second scrape must equal the ``stats``
probe counter for counter, worker for worker (the CI ``fleet-smoke``
job's check).  With ``--trace-out`` the
run executes under a deterministic tracer and exports a Chrome
trace-event file loadable in Perfetto.

Run it directly::

    PYTHONPATH=src python examples/distributed_smoke.py
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

from repro.devices import ptm22
from repro.distributed import ShardDispatcher, worker_command
from repro.obs import MetricsServer, Tracer
from repro.runtime import ResultCache
from repro.sram import make_cell
from repro.sram.montecarlo import MonteCarloAnalyzer

SAMPLES = int(os.environ.get("SMOKE_SAMPLES", "12000"))
SHARDS = 8
VDD = 0.70

#: Series the mid-run scrape must report with a non-zero value.
REQUIRED_SERIES = (
    "repro_dispatch_jobs_total",
    "repro_dispatch_assignments_total",
    "repro_dispatch_active_workers",
)


def scrape_metrics(url):
    """Fetch ``/metrics`` and return ``{series-with-labels: value}``."""
    with urllib.request.urlopen(url, timeout=10) as response:
        text = response.read().decode()
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def assert_scrape_matches_probe(scraped, probe):
    """Every ``stats`` probe counter equals its ``repro_dispatch_*``
    series, and ``per_worker`` equals the ``{worker}`` family."""
    probe = dict(probe)
    per_worker = probe.pop("per_worker")
    for name, value in probe.items():
        series = (
            "repro_dispatch_active_workers" if name == "active_workers"
            else f"repro_dispatch_{name}_total"
        )
        assert scraped.get(series) == value, (
            f"{series}: /metrics {scraped.get(series)!r} != probe {value!r}"
        )
    prefix = 'repro_dispatch_worker_assignments_total{worker="'
    family = {
        key[len(prefix):-len('"}')]: value
        for key, value in scraped.items() if key.startswith(prefix)
    }
    assert family == per_worker, (
        f"per-worker assignments: /metrics {family} != probe {per_worker}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="scrape /metrics mid-run on this port "
                             "(0 = ephemeral) and assert the required "
                             "series are non-zero")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export a Chrome trace-event file of the "
                             "whole run (Perfetto-loadable)")
    args = parser.parse_args(argv)

    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=SAMPLES,
        block_samples=max(1, SAMPLES // SHARDS),
    )
    print(f"monolithic reference: {SAMPLES} samples at {VDD} V ...")
    reference = analyzer.analyze(VDD)

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer(enabled=True, deterministic=True)

    store_dir = tempfile.mkdtemp(prefix="repro-dist-smoke-")
    dispatcher = ShardDispatcher(
        store=ResultCache(store_dir),
        heartbeat_interval=0.2,
        tracer=tracer,
    )
    metrics_server = None
    if args.metrics_port is not None:
        metrics_server = MetricsServer(
            dispatcher.metrics, port=args.metrics_port
        ).start()
        print(f"metrics on {metrics_server.url}")
    host, port = dispatcher.start()
    print(f"dispatcher on {host}:{port}, store {store_dir}")

    victim, survivor = (
        subprocess.Popen(worker_command(host, port, cache_dir=store_dir, name=name))
        for name in ("victim", "survivor")
    )
    try:
        dispatcher.await_workers(2, timeout=120)
        print("2 workers registered; dispatching "
              f"{SHARDS} shards, killing 'victim' mid-run")

        outcome = {}

        def drive():
            outcome["rates"] = analyzer.analyze_sharded(
                VDD, shards=SHARDS, dispatcher=dispatcher
            )

        # Daemonize so a failed assertion below cannot hang the process
        # on a dispatch that will never finish once workers are gone.
        run = threading.Thread(target=drive, daemon=True)
        run.start()

        # SIGKILL the victim the moment it holds a shard assignment.
        deadline = time.monotonic() + 120
        while (dispatcher.stats.per_worker.get("victim", 0) == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert dispatcher.stats.per_worker.get("victim", 0) > 0, (
            "victim never received an assignment"
        )
        if metrics_server is not None:
            # Scrape mid-run, while assignments are in flight: the
            # registry must already report live fleet state.
            scraped = scrape_metrics(metrics_server.url)
            for series in REQUIRED_SERIES:
                value = scraped.get(series, 0.0)
                assert value > 0, (
                    f"mid-run scrape: {series} missing or zero "
                    f"(got {value!r})"
                )
            print(f"mid-run /metrics scrape OK "
                  f"({len(scraped)} series, required ones non-zero)")
        victim.kill()
        victim.wait(timeout=30)
        print("victim killed (SIGKILL) after "
              f"{dispatcher.stats.per_worker['victim']} assignment(s)")

        run.join(timeout=300)
        assert not run.is_alive(), "dispatch did not complete"
        rates = outcome["rates"]

        identical = (
            json.dumps(rates.to_dict(), sort_keys=True)
            == json.dumps(reference.to_dict(), sort_keys=True)
        )
        print(dispatcher.stats.summary())
        assert identical, "distributed merge differs from monolithic analyze"
        assert dispatcher.stats.workers_lost >= 1, "worker death not recorded"
        assert dispatcher.stats.completed == SHARDS
        if metrics_server is not None:
            assert_scrape_matches_probe(
                scrape_metrics(metrics_server.url), dispatcher.stats.to_dict()
            )
            print("post-merge /metrics scrape matches the stats probe")
        flight_kinds = [e["kind"] for e in dispatcher.flight.snapshot()]
        assert "worker_join" in flight_kinds, "worker joins not recorded"
        assert "worker_death" in flight_kinds, "worker death not in flight log"
        if tracer is not None:
            count = tracer.write_chrome_trace(args.trace_out)
            print(f"chrome trace: {count} event(s) -> {args.trace_out}")
        print("distributed smoke OK: byte-identical merge after "
              f"{dispatcher.stats.retries} reassignment(s)")
        return 0
    finally:
        survivor.terminate()
        survivor.wait(timeout=30)
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)
        dispatcher.close()
        if metrics_server is not None:
            metrics_server.stop()
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
