"""Tiered cache — sharded Monte-Carlo throughput, cold vs warm tiers.

Extension benchmark (no paper figure): measures what the tiered cache
(``docs/caching.md``) exists to buy — a voltage point whose shard
tallies already live in *some* tier re-answers at store speed instead
of Monte-Carlo speed.  Three scenarios over the same 6T population:

* ``cold`` — every tier empty; all shards are computed and the
  write-behind flusher warms the remote object store;
* ``warm-remote`` — a **fresh** tiered store (empty memory + directory
  tiers, as on a brand-new machine) over the *same* object store: every
  shard is a remote hit, zero recomputation;
* ``warm-local`` — the cold run's store asked again: every shard is a
  memory-LRU hit.

Asserted invariants:

* all three scenarios produce **byte-identical** failure rates (the
  cache is invisible to the numbers);
* warm scenarios do zero shard recomputation, proven by tier hit
  counters (``remote.hits == shards``, ``memory.hits == shards``) —
  never by timing, which CI runners cannot be trusted to reproduce.

The emitted JSON (``benchmarks/results/tiered_cache.json``, a CI
artifact next to ``margin_kernels.json``) carries samples/sec per
scenario for humans comparing store speed to compute speed.
"""

import json
import tempfile
import time

from benchmarks.conftest import BENCH_SAMPLES, once
from repro.core import format_table
from repro.distributed import FakeObjectStoreServer
from repro.obs import MetricsRegistry, bind_store_metrics
from repro.runtime import make_tiered_store
from repro.sram.bitcell import make_cell
from repro.sram.montecarlo import MonteCarloAnalyzer

#: Shards per scenario (also the expected per-tier hit count when warm).
SHARDS = 8

#: Population cap: the benchmark compares cache tiers, not statistics,
#: so a few thousand samples per scenario are plenty.
SAMPLES = min(BENCH_SAMPLES, 8000)

VDD = 0.70


def _analyze(analyzer, store):
    """One sharded analysis through ``store``; returns (rates, sec).

    ``jobs=1`` keeps every cache access in this process: the benchmark
    compares cache tiers, and a worker pool would both blur the timing
    and land the puts in spawned children (whose rebuilt stores share
    the slower tiers but not the in-process memory LRU).
    """
    start = time.perf_counter()
    rates = analyzer.analyze_sharded(VDD, shards=SHARDS, jobs=1, cache=store)
    return rates, time.perf_counter() - start


def test_tiered_cache_throughput(benchmark, tech, emit):
    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", tech),
        n_samples=SAMPLES,
        block_samples=max(1, SAMPLES // SHARDS),
    )
    server = FakeObjectStoreServer().start()
    cold_store = make_tiered_store(
        cache_dir=tempfile.mkdtemp(prefix="repro-bench-cold-"),
        store_url=server.url,
    )
    try:

        def scenarios():
            rows = []

            cold_rates, cold_sec = _analyze(analyzer, cold_store)
            cold_tiers = cold_store.stats()["tiers"]
            assert cold_tiers["memory"]["hits"] == 0, cold_tiers
            assert cold_tiers["memory"]["puts"] >= SHARDS, cold_tiers
            # Drain the write-behind queue so the remote tier is fully
            # warm before the warm-remote scenario reads it.
            assert cold_store.flush(timeout=60.0), "write-behind stuck"
            rows.append(("cold", cold_rates, cold_sec))

            remote_store = make_tiered_store(
                cache_dir=tempfile.mkdtemp(prefix="repro-bench-warm-"),
                store_url=server.url,
            )
            warm_remote_rates, warm_remote_sec = _analyze(
                analyzer, remote_store
            )
            remote_tiers = remote_store.stats()["tiers"]
            assert remote_tiers["remote"]["hits"] == SHARDS, remote_tiers
            assert remote_tiers["remote"]["errors"] == 0, remote_tiers
            remote_store.close()
            rows.append(("warm-remote", warm_remote_rates, warm_remote_sec))

            warm_local_rates, warm_local_sec = _analyze(
                analyzer, cold_store
            )
            local_tiers = cold_store.stats()["tiers"]
            assert local_tiers["memory"]["hits"] == SHARDS, local_tiers
            rows.append(("warm-local", warm_local_rates, warm_local_sec))
            return rows

        rows = once(benchmark, scenarios)

        reference = json.dumps(rows[0][1].to_dict(), sort_keys=True)
        for scenario, rates, _ in rows[1:]:
            assert json.dumps(rates.to_dict(), sort_keys=True) == reference, (
                f"{scenario} differs from the cold run"
            )

        data = [
            {
                "scenario": scenario,
                "shards": SHARDS,
                "n_samples": SAMPLES,
                "seconds": sec,
                "samples_per_sec": SAMPLES / sec,
            }
            for scenario, _, sec in rows
        ]
        table = format_table(
            ["scenario", "shards", "samples", "seconds", "samples/s"],
            [
                [d["scenario"], d["shards"], d["n_samples"],
                 f"{d['seconds']:.3f}", f"{d['samples_per_sec']:.0f}"]
                for d in data
            ],
        )
        registry = MetricsRegistry()
        bind_store_metrics(registry, cold_store, component="bench")
        emit("tiered_cache", table, data=data, metrics=registry)
    finally:
        cold_store.close()
        server.stop()
