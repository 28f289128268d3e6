"""Distributed shard dispatch — scaling from 1 to N local workers.

Extension benchmark (no paper figure): farms one cell's Monte-Carlo
failure sweep to fleets of real worker *subprocesses* over localhost
TCP (the deployment shape of ``repro-sram dispatch`` / ``worker``,
minus the network) and measures how wall time scales with fleet size.

Asserted invariants:

* every distributed merge is byte-identical to the monolithic
  ``MonteCarloAnalyzer.analyze`` answer, for every fleet size;
* a worker fleet sharing the warm store of a previous fleet performs
  **zero** shard computations (the shared-cache dedupe contract).

The speedup column is hardware-honest, not asserted: localhost fleets
only beat the monolithic run when cores are available to back them
(on a single-core box every fleet necessarily lands near 1.0×, plus
wire overhead); the distributed win on real deployments comes from
fleets on *separate* machines, which this harness cannot simulate.

Environment knobs: ``REPRO_BENCH_DIST_SAMPLES`` (population per voltage
point, default 16000), ``REPRO_BENCH_DIST_WORKERS`` (largest fleet,
default 4).
"""

import json
import os
import subprocess
import time

from benchmarks.conftest import once
from repro.core import format_table
from repro.devices import ptm22
from repro.distributed import ShardDispatcher, worker_command
from repro.runtime import ResultCache
from repro.sram import make_cell
from repro.sram.montecarlo import MonteCarloAnalyzer

DIST_SAMPLES = int(os.environ.get("REPRO_BENCH_DIST_SAMPLES", "16000"))
MAX_WORKERS = int(os.environ.get("REPRO_BENCH_DIST_WORKERS", "4"))

#: Shards per voltage point — fixed across fleets so every fleet does
#: identical work and wall time isolates the parallelism.
SHARDS = 8

VDDS = (0.65, 0.70)


def _fleet_sizes():
    sizes = [1]
    while sizes[-1] * 2 <= MAX_WORKERS:
        sizes.append(sizes[-1] * 2)
    return tuple(sizes)


def _canon(rates) -> str:
    return json.dumps(rates.to_dict(), sort_keys=True)


def _drive_fleet(analyzer, n_workers, store_dir, label):
    """One sweep through a fresh dispatcher + n worker subprocesses."""
    with ShardDispatcher(store=ResultCache(store_dir)) as dispatcher:
        host, port = dispatcher.start()
        procs = [
            subprocess.Popen(
                worker_command(host, port, cache_dir=store_dir, name=f"{label}-{i}"),
                stdout=subprocess.DEVNULL,
            )
            for i in range(n_workers)
        ]
        try:
            dispatcher.await_workers(n_workers, timeout=120)
            start = time.perf_counter()
            results = [
                analyzer.analyze_sharded(vdd, shards=SHARDS,
                                         dispatcher=dispatcher)
                for vdd in VDDS
            ]
            elapsed = time.perf_counter() - start
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=30)
        return results, elapsed, dispatcher.stats


def test_distributed_sweep_scaling(benchmark, tmp_path_factory, emit):
    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=DIST_SAMPLES,
        block_samples=max(1, DIST_SAMPLES // SHARDS),
    )

    # The byte-identity oracle, timed as the single-host reference.
    seq_start = time.perf_counter()
    reference = [_canon(analyzer.analyze(vdd)) for vdd in VDDS]
    seq_elapsed = time.perf_counter() - seq_start

    def sweep():
        rows = []
        for n_workers in _fleet_sizes():
            store_dir = str(tmp_path_factory.mktemp(f"fleet{n_workers}"))
            results, elapsed, stats = _drive_fleet(
                analyzer, n_workers, store_dir, f"f{n_workers}"
            )
            assert [_canon(r) for r in results] == reference, (
                f"{n_workers} workers: distributed merge differs from "
                "monolithic analyze"
            )
            assert stats.computed == SHARDS * len(VDDS)
            rows.append((n_workers, elapsed, stats, store_dir))
        return rows

    rows = once(benchmark, sweep)

    # Warm-store fleet: same population, the last fleet's store — every
    # shard answered without computation.
    warm_results, warm_elapsed, warm_stats = _drive_fleet(
        analyzer, 2, rows[-1][3], "warm"
    )
    assert [_canon(r) for r in warm_results] == reference
    assert warm_stats.computed == 0

    table_rows = [
        ["monolithic", "-", "-", f"{seq_elapsed:.3f}", "1.00"],
    ] + [
        [f"{n} worker(s)", stats.computed, stats.retries,
         f"{elapsed:.3f}", f"{seq_elapsed / elapsed:.2f}"]
        for n, elapsed, stats, _ in rows
    ] + [
        ["warm store (2 workers)", warm_stats.computed, warm_stats.retries,
         f"{warm_elapsed:.3f}", f"{seq_elapsed / warm_elapsed:.2f}"],
    ]
    emit(
        "distributed_sweep",
        format_table(
            ["fleet", "shards computed", "retries", "wall s",
             "speedup vs monolithic"],
            table_rows,
        ),
        data=[
            {
                "fleet": row[0],
                "wall_seconds": float(row[3]),
                "speedup": float(row[4]),
            }
            for row in table_rows
        ],
    )
