"""Shared fixtures for the benchmark harness.

One trained model + one pair of cell characterizations per session, at
publication quality (20k Monte-Carlo samples, 5 fault trials).  Both are
disk-cached under ``.repro_cache/``, so the first benchmark run pays the
training/Monte-Carlo cost and subsequent runs start immediately.

Environment knobs tune the harness without editing code:

* ``REPRO_BENCH_SAMPLES`` — Monte-Carlo samples per voltage point
  (default 20000; CI's smoke job runs a reduced count).
* ``REPRO_JOBS`` — worker processes for the characterization sweeps
  (picked up by :class:`repro.runtime.SweepExecutor`; results are
  bit-identical for any value).
* ``REPRO_BENCH_SHARDS`` / ``REPRO_BENCH_MAX_SHARD_SAMPLES`` — stream
  each voltage point's Monte-Carlo population through the sharded path
  (:mod:`repro.runtime.sharding`) with that many shards / that per-shard
  sample ceiling; like ``REPRO_JOBS``, bit-identical for any value.
* ``REPRO_BENCH_BLOCK_SAMPLES`` — samples per seeded block (sharding
  granularity).  Unlike the knobs above this *defines* the sampled
  population; leave unset to keep the historical streams.

Every benchmark prints the regenerated paper table (so it lands in
``bench_output.txt``) and also writes it to ``benchmarks/results/`` —
as plain text always, and as a machine-readable JSON document whenever
the benchmark hands ``emit`` structured rows (CI uploads those JSON
files as build artifacts).
"""

import json
import os
import time

import pytest

from repro.core import CircuitToSystemSimulator, train_benchmark_ann
from repro.devices import ptm22
from repro.mem import CellTables
from repro.version import __version__

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Monte-Carlo samples per voltage point (env-tunable for CI smoke runs).
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "20000"))


def _optional_int(name: str):
    value = os.environ.get(name, "").strip()
    return int(value) if value else None


#: Optional sharded-Monte-Carlo knobs (None = monolithic populations).
BENCH_SHARDS = _optional_int("REPRO_BENCH_SHARDS")
BENCH_MAX_SHARD_SAMPLES = _optional_int("REPRO_BENCH_MAX_SHARD_SAMPLES")
BENCH_BLOCK_SAMPLES = _optional_int("REPRO_BENCH_BLOCK_SAMPLES")


@pytest.fixture(scope="session")
def tech():
    return ptm22()


@pytest.fixture(scope="session")
def model():
    """The benchmark ANN (fast profile by default; REPRO_PROFILE=paper
    runs Table I scale)."""
    return train_benchmark_ann()


@pytest.fixture(scope="session")
def tables(tech):
    return CellTables.build(
        technology=tech, n_samples=BENCH_SAMPLES,
        shards=BENCH_SHARDS, max_shard_samples=BENCH_MAX_SHARD_SAMPLES,
        block_samples=BENCH_BLOCK_SAMPLES,
    )


@pytest.fixture(scope="session")
def sim(model, tables):
    return CircuitToSystemSimulator(model, tables=tables, n_trials=5)


@pytest.fixture(scope="session")
def emit():
    """Print a named result block and persist it under benchmarks/results/.

    ``emit(name, text)`` writes ``<name>.txt``; passing structured rows
    via ``emit(name, text, data=...)`` additionally writes ``<name>.json``
    with run metadata, for machine consumption (CI artifacts, plotting).

    Every JSON document embeds a ``metrics`` snapshot — the series of
    the registry passed as ``emit(..., metrics=...)``, else the process
    default registry — so an uploaded artifact carries the
    observability counters of the run that produced it.
    """

    def _emit(name: str, text: str, data=None, metrics=None) -> None:
        banner = f"\n===== {name} =====\n{text}\n"
        print(banner)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")
        if data is not None:
            from repro.obs.metrics import default_registry

            registry = metrics if metrics is not None else default_registry()
            document = {
                "name": name,
                "version": __version__,
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "n_samples": BENCH_SAMPLES,
                "profile": os.environ.get("REPRO_PROFILE", "fast"),
                "data": data,
                "metrics": registry.snapshot(),
            }
            with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
                json.dump(document, fh, indent=1, sort_keys=True)

    return _emit


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The studies are deterministic and heavy; statistical repetition
    would only slow the harness down.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
