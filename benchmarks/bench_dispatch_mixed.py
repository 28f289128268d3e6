"""Mixed-workload dispatch — all three job kinds through one fleet.

Extension benchmark (no paper figure): the elastic dispatcher serves
every paper workload as a distributed job kind.  This harness drives a
realistic mixed session — circuit Monte-Carlo margin shards, importance
-sampled failure points and NN accuracy points, dispatched
*concurrently* by three client threads to one shared worker
fleet — and reports per-kind throughput.  A second phase measures what
speculative re-execution buys against a deliberate straggler, using the
chaos harness's scripted ``stall`` worker.

Asserted invariants:

* every kind's merged result is byte-identical to its single-process
  oracle (``execute_job`` + the same decode/merge), concurrency and
  speculation notwithstanding;
* the straggler run with speculation enabled wins by speculation
  (``speculative_wins >= 1``), not by retries.

The throughput and savings columns are hardware-honest, not asserted:
localhost fleets share the host's cores with the dispatcher, so wall
times bound the protocol overhead rather than showcase parallelism.

Environment knobs: ``REPRO_BENCH_MIXED_SAMPLES`` (margin population,
default 8000), ``REPRO_BENCH_MIXED_WORKERS`` (fleet size, default 3).
"""

import os
import subprocess
import threading
import time

import numpy as np

from benchmarks.conftest import once
from repro.core import format_table
from repro.devices import ptm22
from repro.distributed import (
    ShardDispatcher,
    benchmark_model_spec,
    execute_job,
    is_shard_jobs,
    margin_tally_jobs,
    model_from_spec,
    nn_fault_eval_jobs,
    worker_command,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.runtime import ResultCache
from repro.sram import make_cell
from repro.sram.importance_sampling import (
    ImportanceSampler,
    ImportanceSamplingResult,
)
from repro.sram.montecarlo import MarginTally, MonteCarloAnalyzer
from tests.distributed.chaos import (
    ChaosEvent,
    ChaosSchedule,
    digest_of,
    run_chaos_fleet,
)

MIXED_SAMPLES = int(os.environ.get("REPRO_BENCH_MIXED_SAMPLES", "8000"))
N_WORKERS = int(os.environ.get("REPRO_BENCH_MIXED_WORKERS", "3"))

#: Margin shards per voltage point (margin_tally's unit of dispatch).
SHARDS = 6

VDD = 0.70

#: Reduced training run: the benchmark measures dispatch, not accuracy;
#: the tiny model trains once here, then every worker loads the cache.
MODEL = benchmark_model_spec(
    profile="fast", n_train=1000, n_val=200, n_test=500, epochs=2
)

#: Scripted straggler for the speculation phase: the first worker sits
#: on its very first assignment this long before answering.
STALL_SECONDS = 2.5
SPECULATION_CUTOFF = 0.25


def _rates():
    return BitErrorRates(
        vdd=VDD, n_bits=8, msb_in_8t=2,
        p_read=np.full(8, 5e-3), p_write=np.full(8, 2e-3),
    )


def _workloads():
    """One realistic job list per kind, plus its decode/merge pair."""
    analyzer = MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()),
        n_samples=MIXED_SAMPLES,
        block_samples=max(1, MIXED_SAMPLES // SHARDS),
    ).resolved()
    sampler = ImportanceSampler(make_cell("6t", ptm22()))
    model = model_from_spec(MODEL)  # trains once; the fleet loads cache
    injector = WeightFaultInjector([_rates()] * model.image.n_layers)
    return {
        "margin_tally": (
            margin_tally_jobs(analyzer, VDD, analyzer.shard_plan(shards=SHARDS)),
            MarginTally.from_dict, MarginTally.merge,
        ),
        "is_shard": (
            is_shard_jobs(sampler, [0.62, 0.66, VDD], n_samples=1500, seed=7),
            ImportanceSamplingResult.from_dict, None,
        ),
        "nn_fault_eval": (
            nn_fault_eval_jobs(MODEL, [
                {"vdd": VDD, "injector": injector, "n_trials": 2,
                 "seed": 1, "label": "hybrid"},
                {"vdd": 0.66, "injector": injector, "n_trials": 2,
                 "seed": 2, "label": "hybrid"},
                {"vdd": VDD, "injector": None, "n_trials": 1,
                 "seed": 0, "label": "baseline"},
            ]),
            None, None,
        ),
    }


def _oracle_digest(jobs, decode, merge):
    """Single-process reference, digested (see tests/distributed/chaos)."""
    values = [execute_job(job, None)[0] for job in jobs]
    if decode is not None:
        values = [decode(v) for v in values]
    if merge is None:
        return digest_of(values)
    merged = values[0]
    for head in values[1:]:
        merged = merge([merged, head])
    return digest_of(merged)


def _drive_mixed(workloads, store_dir):
    """All three kinds at once: one client thread per kind, one fleet."""
    results, elapsed = {}, {}
    with ShardDispatcher(store=ResultCache(store_dir)) as dispatcher:
        host, port = dispatcher.start()
        procs = [
            subprocess.Popen(
                worker_command(host, port, cache_dir=store_dir, name=f"mix-{i}"),
                stdout=subprocess.DEVNULL,
            )
            for i in range(N_WORKERS)
        ]
        try:
            dispatcher.await_workers(N_WORKERS, timeout=120)

            def drive(kind):
                jobs, decode, merge = workloads[kind]
                start = time.perf_counter()
                results[kind] = dispatcher.dispatch(
                    jobs, decode=decode, merge=merge, client=kind
                )
                elapsed[kind] = time.perf_counter() - start

            threads = [
                threading.Thread(target=drive, args=(kind,), name=kind)
                for kind in workloads
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            total = time.perf_counter() - start
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=30)
        return results, elapsed, total, dispatcher


def _speculation_study(workloads, tmp_path_factory):
    """The same margin workload against a scripted straggler, with and
    without speculation; fresh stores so nothing dedupes across runs."""
    jobs, decode, merge = workloads["margin_tally"]
    schedule = ChaosSchedule(
        events=(ChaosEvent(worker=0, after_jobs=0, action="stall"),),
        stall_seconds=STALL_SECONDS,
    )
    runs = {}
    for label, kwargs in (
        ("disabled", {"speculate": False}),
        ("enabled", {"speculation_threshold": SPECULATION_CUTOFF}),
    ):
        store_dir = str(tmp_path_factory.mktemp(f"spec-{label}"))
        runs[label] = run_chaos_fleet(
            jobs, schedule, store_dir, decode=decode, merge=merge, **kwargs
        )
    return runs


def test_mixed_workload_dispatch(benchmark, tmp_path_factory, emit):
    workloads = _workloads()
    oracles = {
        kind: _oracle_digest(*workloads[kind]) for kind in workloads
    }

    def study():
        store_dir = str(tmp_path_factory.mktemp("mixed"))
        return _drive_mixed(workloads, store_dir)

    results, elapsed, total, dispatcher = once(benchmark, study)
    stats = dispatcher.stats

    n_jobs = {kind: len(workloads[kind][0]) for kind in workloads}
    for kind in workloads:
        assert kind in results, f"{kind} dispatch died in its thread"
        assert digest_of(results[kind]) == oracles[kind], (
            f"{kind}: concurrent fleet merge differs from the "
            "single-process oracle"
        )
    assert stats.completed == sum(n_jobs.values())
    assert stats.failures == 0

    spec_runs = _speculation_study(workloads, tmp_path_factory)
    for run in spec_runs.values():
        assert run.digest == oracles["margin_tally"]
    assert spec_runs["enabled"].stats.speculative_wins >= 1
    assert spec_runs["enabled"].stats.retries == 0
    savings = spec_runs["disabled"].elapsed_s - spec_runs["enabled"].elapsed_s

    table_rows = [
        [kind, n_jobs[kind], f"{elapsed[kind]:.3f}",
         f"{n_jobs[kind] / elapsed[kind]:.2f}"]
        for kind in sorted(workloads)
    ] + [
        ["all kinds (concurrent)", sum(n_jobs.values()), f"{total:.3f}",
         f"{sum(n_jobs.values()) / total:.2f}"],
    ]
    speculation_note = (
        f"straggler stalls {STALL_SECONDS:.1f}s: "
        f"{spec_runs['disabled'].elapsed_s:.3f}s without speculation, "
        f"{spec_runs['enabled'].elapsed_s:.3f}s with "
        f"(cutoff {SPECULATION_CUTOFF:.2f}s, "
        f"{spec_runs['enabled'].stats.speculative_wins} speculative win(s)) "
        f"-> {savings:.3f}s saved"
    )
    emit(
        "dispatch_mixed",
        format_table(
            ["workload", "jobs", "wall s", "jobs/s"], table_rows
        ) + "\n\n" + speculation_note,
        metrics=dispatcher.metrics,
        data={
            "fleet_workers": N_WORKERS,
            "kinds": [
                {
                    "kind": kind,
                    "jobs": n_jobs[kind],
                    "wall_seconds": elapsed[kind],
                    "jobs_per_second": n_jobs[kind] / elapsed[kind],
                }
                for kind in sorted(workloads)
            ],
            "concurrent_wall_seconds": total,
            "dispatcher_stats": stats.to_dict(),
            "speculation": {
                "stall_seconds": STALL_SECONDS,
                "cutoff_seconds": SPECULATION_CUTOFF,
                "jobs": n_jobs["margin_tally"],
                "disabled_wall_seconds": spec_runs["disabled"].elapsed_s,
                "enabled_wall_seconds": spec_runs["enabled"].elapsed_s,
                "savings_seconds": savings,
                "speculative_wins":
                    spec_runs["enabled"].stats.speculative_wins,
            },
        },
    )
